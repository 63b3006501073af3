"""Scripted attack scenarios and the corrupt-role strategies behind them.

A corrupt role keeps its legitimate credentials (it is a certified, possibly
compromised operator), exports its keys into the adversary's initial
knowledge, and follows the attack script instead of its state machine.
Every attack declares its assertions up front and reports pass/fail with
evidence pointers into the transcript.
"""

from dataclasses import replace
from types import SimpleNamespace

from . import terms, wire
from .channel import channel_recv, channel_send, handshake_client
from .errors import RateLimited, ScreeningError, ScriptError
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
    ScenarioOutcome,
    ScenarioResult,
    World,
    build_world,
    key_slot_uniqueness_assertion,
    matching_client_sessions,
    scenario_honest_basic,
    scenario_honest_exemption,
    secrecy_assertions,
)
from .screening import (
    DENY,
    GRANT,
    HashedDbRole,
    KeyserverRole,
    QueryRequest,
    ServerConnection,
    open_reply,
    raise_error_record,
)
from .simnet import Selector, TapRule
from .terms import Payload


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
        self.stage_log: list[str] = []
        self.step6_result: str | None = None
        self.drained = 0
        self.attack_cookie: bytes | None = None
        self._target_state = None

    def open_connection(self):
        return _MitmConnection(self)

    # steps [2] and [3]: replay the hello, collect the target's challenge
    def attack_open_target_session(self, hello: Payload):
        net = self.net
        conn = net.dial(self.name, self.target)
        session = handshake_client(conn.send, self.target,
                                   self.channel_ca_key,
                                   self.backend, self.rng)
        net.register_channel(self.name, session)
        # a relay: the client's bytes go out under the term they came in with
        respond = channel_recv(session, conn.send(channel_send(session, hello)))
        # a target that rejects the hello answers with an error record
        raise_error_record(wire.unpack_fields(respond))
        omega_w, r_w, w_chain, w_sig = decode_respond(respond)
        self._target_state = (conn, session, omega_w, r_w, w_chain)
        self.attack_cookie = omega_w
        self.stage_log.append("replayed-hello-and-got-challenge")
        return omega_w, r_w

    # step [6]: present the harvested signature
    def attack_present_finish(self, y: bytes):
        conn, session, omega_w, r_w, _ = self._target_state
        result = conn.send(channel_send(session, encode_finish(omega_w, y)))
        if result is None:
            self.step6_result = "Authenticated"
            self.stage_log.append("target-authenticated-us-as-client")
        else:
            try:
                open_reply(session, result)
                self.step6_result = "UnexpectedReply"
            except ScreeningError as err:
                self.step6_result = type(err).__name__
                self.stage_log.append(f"target-rejected: {self.step6_result}")

    def attack_drain_budget(self):
        """Spend the victim's window budget at the target, greedily to zero."""
        if self.step6_result != "Authenticated":
            return
        conn, session, omega_w, _, _ = self._target_state
        g = self.backend.generator
        batch = 32
        for _ in range(200):
            if batch < 1:
                break
            elems = [g.exp(self.backend.scalar(j + 2)).encode()
                     for j in range(batch)]
            req = terms.cat(terms.blob(b"ks-eval", "text"),
                            terms.Atom("cookie", omega_w),
                            *map(terms.element_atom, elems))
            try:
                open_reply(session, conn.send(channel_send(
                    session, Payload.of(req))))
                self.drained += batch
            except RateLimited:
                batch //= 2
        self.stage_log.append(f"drained-{self.drained}")


class _MitmConnection(ServerConnection):
    def _scep_step(self, request: Payload):
        role: MitmKeyserver = self.role
        if self.scep is None:
            # step [1]: the client volunteers its nonce and token chain
            r_s, client_chain, _extra = decode_hello(request.data)
            role.stage_log.append("harvested-hello")
            omega_w, r_w = role.attack_open_target_session(request)
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
        _omega_echo, y = decode_finish(request.data)
        role.stage_log.append("harvested-client-signature")
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

    def _query(self, conn: ServerConnection, request: Payload,
               fields_: list) -> Payload:
        query = QueryRequest.decode(request.data)
        if query.exemption is not None:
            chain = CertChain.decode(query.exemption.chain_bytes)
            self.stolen.append((chain.token.payload.device_id,
                                query.exemption.auth_code, self.net.now()))
            self.net.note("corrupt database stored the device code")
        return super()._query(conn, request, fields_)

    def replay_stolen_code(self) -> bool:
        """Present the captured (device, code) to the backend as our own."""
        device_id, code, _ = self.stolen[-1]
        return self._auth_check(device_id, code, self.net.now())


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


def attack_mitm_rate_limit(variant: str = SCEP, seed: int = 7,
                           base: ScenarioConfig | None = None
                           ) -> ScenarioResult:
    """The six-step rate-limit circumvention through a corrupt keyserver.

    Under SCEP the target authenticates the adversary as the honest
    synthesizer and the synthesizer's ledger entry absorbs the adversary's
    queries; under SCEP+ the harvested signature covers the corrupt
    server's token, so the final step fails verification.
    """
    config = replace(base or ScenarioConfig(), scep_variant=variant,
                     corrupt={"K1": "mitm"})
    world = build_world(config, seed)
    mitm: MitmKeyserver = world.keyservers["K1"]
    target: KeyserverRole = world.keyservers[mitm.target]
    sigma = world.synth.chain.token.sigma
    mu = world.synth.chain.token.payload.rate_limit

    order = [DEFAULT_HAZARDS[0][0], CLEAN_SEQUENCES[0]]
    world.register_order_secrets(order)
    query_error = None
    response = None
    try:
        response = world.synth.basic_query(order)
    except ScreeningError as err:
        query_error = err.with_traceback(None)  # its frames hold the world
        world.net.note(f"victim query failed: {type(err).__name__}")

    assertions = []
    if variant == SCEP:
        assertions.append(Assertion(
            "server-authenticated-adversary-as-victim",
            mitm.step6_result == "Authenticated",
            f"step [6] outcome: {mitm.step6_result}"))
        debited = target.ledger.window_total(sigma, world.net.now())
        assertions.append(Assertion(
            "victim-ledger-debited-by-adversary",
            mitm.drained > 0 and debited == mitm.drained,
            f"adversary spent {mitm.drained} of mu={mu}; "
            f"target ledger shows {debited} under the victim's sigma"))
        assertions.append(Assertion(
            "victim-budget-exhausted-up-to-mu", debited == mu,
            f"window total {debited} == mu {mu}"))
        assertions.append(Assertion(
            "victim-query-denied-by-stolen-budget",
            isinstance(query_error, RateLimited),
            f"victim's own query outcome: "
            f"{type(query_error).__name__ if query_error else response.overall}"))
        # The structural failure itself: the authenticated session at the
        # target has no matching honest client session.
        unmatched = _unmatched_authenticated_sessions(world)
        assertions.append(Assertion(
            "no-honest-client-session-agrees", len(unmatched) == 1
            and unmatched[0]["session"].omega == mitm.attack_cookie,
            f"{len(unmatched)} authenticated sessions lack a matching client"))
        assertions += secrecy_assertions(world, expect_cookie_leak=True)
    else:
        assertions.append(Assertion(
            "attack-blocked-at-step-6",
            mitm.step6_result == "BadClientSig",
            f"step [6] outcome: {mitm.step6_result}"))
        assertions.append(Assertion(
            "victim-query-unaffected",
            query_error is None and response is not None
            and response.overall == world.oracle(order).overall,
            "victim verdict matches the oracle" if query_error is None
            else f"victim query raised {type(query_error).__name__}"))
        assertions.append(Assertion(
            "no-adversary-budget-spent", mitm.drained == 0,
            f"adversary drained {mitm.drained}"))
        assertions += _full_agreement_assertion(world)
        assertions += secrecy_assertions(world, expect_cookie_leak=False)

    token = ("ATTACK_SUCCEEDED" if variant == SCEP else
             f"ATTACK_BLOCKED:{mitm.step6_result}")
    outcome = ScenarioOutcome(f"mitm-rate-limit-{variant}", assertions,
                              token=token)
    return ScenarioResult(outcome.name, world, outcome,
                          world.net.transcript.render())


def _unmatched_authenticated_sessions(world: World) -> list:
    """Authenticated honest-server sessions without exactly one client."""
    net = world.net
    return [entry for _, entry in net.honest_authenticated_sessions()
            if len(matching_client_sessions(net, entry)) != 1]


def _full_agreement_assertion(world: World) -> list:
    unmatched = _unmatched_authenticated_sessions(world)
    return [Assertion(
        "injective-agreement-holds", not unmatched,
        f"{len(unmatched)} authenticated sessions lack a matching client"
        if unmatched else "every authenticated session has its one client")]


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
    world = build_world(config, seed)
    net = world.net

    clean_order = [CLEAN_SEQUENCES[0]]
    hazard_order = [DEFAULT_HAZARDS[0][0]]
    world.register_order_secrets(clean_order + hazard_order)

    # response records live at (s2c, seq 1) on the S->H link
    net.add_tap(TapRule(Selector("S->H", "s2c", 0, rec_seq=1), "capture",
                        name="first-response"))
    net.add_tap(TapRule(Selector("S->H", "s2c", 1, rec_seq=1), "replace",
                        name="first-response"))

    first = world.synth.basic_query(clean_order)
    assert first.overall == GRANT
    swap_outcome = None
    second = None
    try:
        second = world.synth.basic_query(hazard_order, resume_hdb=True)
        swap_outcome = "accepted"
    except ScreeningError as err:
        swap_outcome = type(err).__name__
        net.note(f"second query failed: {swap_outcome}")

    oracle = world.oracle(hazard_order)
    assertions = [Assertion(
        "first-query-grants-clean-order", first.overall == GRANT,
        "baseline query behaves")]

    if resumption and not binding:
        inverted = (second is not None and second.overall == GRANT
                    and oracle.overall == DENY)
        assertions.append(Assertion(
            "synthesizer-accepts-inverted-verdict", inverted,
            f"synthesizer saw {second.overall if second else swap_outcome}, "
            f"oracle says {oracle.overall}"))
        token = "VERDICT_INVERTED"
    elif resumption and binding:
        assertions.append(Assertion(
            "swap-detected-by-response-binding",
            swap_outcome == "ResponseBindingMismatch",
            f"second query outcome: {swap_outcome}"))
        token = "SWAP_DETECTED"
    else:
        assertions.append(Assertion(
            "resumption-disabled-error-observed",
            any("ResumptionDisabled" in n for n in net.notes),
            f"notes: {net.notes}"))
        assertions.append(Assertion(
            "swap-rejected-by-key-mismatch",
            swap_outcome == "AuthenticationFailure",
            f"second query outcome: {swap_outcome}"))
        assertions.append(key_slot_uniqueness_assertion(world))
        token = "SWAP_REJECTED"

    assertions += secrecy_assertions(world)
    name = (f"response-swap-resumption-{'on' if resumption else 'off'}"
            f"-binding-{'on' if binding else 'off'}")
    outcome = ScenarioOutcome(name, assertions, token=token)
    return ScenarioResult(name, world, outcome, net.transcript.render())


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
    config = replace(base, corrupt={"H": "leaky"}, elt_sequences=(covered,))
    world = build_world(config, seed)
    hdb: LeakyHashedDb = world.hdb

    order = [covered, CLEAN_SEQUENCES[0]]
    world.register_order_secrets(order)
    response = world.synth.exemption_query(order, world.elt_chain,
                                           world.fresh_code())
    oracle = world.oracle(order, tuple(config.elt_sequences))

    replay_same_window = hdb.replay_stolen_code()
    world.net.advance_clock(30)
    replay_next_window = hdb.replay_stolen_code()

    assertions = [
        Assertion("honest-exemption-flow-grants",
                  response.overall == oracle.overall == GRANT,
                  f"synthesizer saw {response.overall}"),
        Assertion("stolen-code-accepted-within-window", replay_same_window,
                  "backend accepted the replayed code"),
        Assertion("stolen-code-rejected-next-window", not replay_next_window,
                  "backend rejected the stale window"),
    ]
    assertions += secrecy_assertions(world)
    outcome = ScenarioOutcome("passcode-replay", assertions,
                              token="REPLAY_ACCEPTED" if replay_same_window
                              else "REPLAY_REJECTED")
    return ScenarioResult(outcome.name, world, outcome,
                          world.net.transcript.render())


def attack_token_collision_dos(forced: bool = True, seed: int = 17,
                               base: ScenarioConfig | None = None
                               ) -> ScenarioResult:
    """Identifier collision merges two tokens' ledger entries.

    The adversary synthesizer mints its own valid token whose identifier
    collides with the honest one (the issuing rng is forced), burns the
    shared window budget, and the honest synthesizer's next query is denied.
    With distinct identifiers the budgets stay independent.
    """
    config = base or ScenarioConfig()
    if config.rate_limit > 5000:
        raise ScriptError("budget exhaustion is a desk-scale demonstration; "
                          "use --rate-limit <= 5000")
    world = build_world(config, seed)
    net = world.net
    sigma = world.synth.chain.token.sigma
    adversary = world.add_synthesizer(
        "S2", config.rate_limit, forced_sigma=sigma if forced else None)

    order = [CLEAN_SEQUENCES[0], CLEAN_SEQUENCES[1]]
    world.register_order_secrets(order)
    first = world.synth.basic_query(order)

    # Burn the (possibly shared) window budget down to exactly mu: the
    # adversary knows mu from its own token.
    remaining = config.rate_limit - len(order)
    while remaining > 0:
        n = min(remaining, 12)
        adversary.basic_query([CLEAN_SEQUENCES[2][:6 + i] for i in range(n)])
        remaining -= n
        net.advance_clock(1)

    k1 = world.keyservers["K1"]
    merged_total = k1.ledger.window_total(sigma, net.now())
    victim_error = None
    try:
        second = world.synth.basic_query([CLEAN_SEQUENCES[0]])
    except ScreeningError as err:
        victim_error = err.with_traceback(None)  # its frames hold the world

    both_authenticated = {
        e["auth"].client_name
        for e in net.server_sessions.values()
        if e["auth"] is not None and e["auth"].sigma == sigma}

    assertions = [
        Assertion("first-honest-query-grants", first.overall == GRANT, ""),
    ]
    if forced:
        assertions += [
            Assertion("both-tokens-authenticate-independently",
                      both_authenticated == {"S", "S2"},
                      f"sessions under this sigma: {sorted(both_authenticated)}"),
            Assertion("ledger-entries-merge-under-one-sigma",
                      merged_total == config.rate_limit,
                      f"keyserver ledger shows {merged_total} for the shared "
                      f"sigma"),
            Assertion("honest-token-denied-after-merge",
                      isinstance(victim_error, RateLimited),
                      f"victim's follow-up query: "
                      f"{type(victim_error).__name__ if victim_error else 'allowed'}"),
        ]
        token = "BUDGET_MERGED"
    else:
        assertions += [
            Assertion("distinct-sigmas-keep-budgets-independent",
                      victim_error is None and second.overall == GRANT,
                      f"victim's follow-up query: "
                      f"{type(victim_error).__name__ if victim_error else second.overall}"),
            Assertion("victim-ledger-untouched-by-adversary",
                      merged_total == len(order),
                      f"keyserver ledger shows {merged_total} for the "
                      f"victim's sigma"),
        ]
        token = "INDEPENDENT_BUDGETS"
    assertions += secrecy_assertions(world)
    name = f"token-collision-{'forced' if forced else 'distinct'}"
    outcome = ScenarioOutcome(name, assertions, token=token)
    return ScenarioResult(name, world, outcome, net.transcript.render())


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
