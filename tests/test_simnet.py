"""Simulator determinism, taps, the scenario script, and the closure engine."""

import gc
import re
import weakref

import pytest

from dnascreen import (
    attacks,
    channel,
    closure,
    crypto,
    scep,
    screening,
    simnet,
    terms,
)
from dnascreen.closure import Knowledge, build_knowledge, probe
from dnascreen.crypto import TEST_BACKEND, aead_seal
from dnascreen.errors import ScriptError
from dnascreen.scenarios import (
    CLEAN_SEQUENCES,
    DEFAULT_HAZARDS,
    ScenarioConfig,
    build_world,
    key_slot_uniqueness_assertion,
    run_scenario,
    scenario_honest_basic,
    scenario_honest_exemption,
)
from dnascreen.simnet import Selector, SimNetwork, TapRule

B = TEST_BACKEND
HAZ = DEFAULT_HAZARDS[0][0].hex()
CLEAN = CLEAN_SEQUENCES[0].hex()


def test_selector_parsing():
    s = Selector.parse("S->H:s2c:1:r1")
    assert (s.link, s.direction, s.conn, s.rec_seq) == ("S->H", "s2c", 1, 1)
    s = Selector.parse("K1->K2:c2s:0:m3")
    assert s.nth == 3 and s.rec_seq is None
    for bad in ("S->H:up:0:r1", "S->H:c2s:0:x1", "nonsense"):
        with pytest.raises(ScriptError):
            Selector.parse(bad)


def test_script_determinism_and_seed_sensitivity():
    config = ScenarioConfig()
    script = f"query S {HAZ},{CLEAN}\nadvance-clock 60\nquery S {CLEAN}"
    a = run_scenario(config, script, seed=5)
    b = run_scenario(ScenarioConfig(), script, seed=5)
    assert a.transcript_text == b.transcript_text
    c = run_scenario(ScenarioConfig(), script, seed=6)
    assert a.transcript_text != c.transcript_text


def test_script_rejects_unknown_command_and_role():
    with pytest.raises(ScriptError):
        run_scenario(ScenarioConfig(), "frobnicate S", seed=1)
    with pytest.raises(ScriptError):
        run_scenario(ScenarioConfig(), f"query S9 {CLEAN}", seed=1)
    for corrupt in ("corrupt NOSUCH mitm", "corrupt K1 evil",
                    # each strategy fits one kind of role only
                    "corrupt H mitm", "corrupt A mitm", "corrupt K2 leaky",
                    "corrupt S leaky", "corrupt K1"):
        with pytest.raises(ScriptError):
            run_scenario(ScenarioConfig(), f"{corrupt}\nquery S {CLEAN}",
                         seed=1)
    with pytest.raises(ScriptError):
        run_scenario(ScenarioConfig(), f"query-exempt S {CLEAN} code=fresh",
                     seed=1)  # no exemption token configured


def test_script_error_inside_a_query_ends_the_run():
    # the replace half of this swap fires on query 1, before anything was
    # captured: a fault of the script, not a query the system refused
    script = (f"swap S->H:s2c:1:r1 S->H:s2c:0:r1\n"
              f"query S {CLEAN}\n"
              f"query S {CLEAN}\n")
    with pytest.raises(ScriptError, match="^line 2: nothing captured as"):
        run_scenario(ScenarioConfig(), script, seed=3)


@pytest.mark.parametrize("script,message", [
    ("add-synth S", "line 1: name 'S' is already in use"),
    ("add-synth S2\nadd-synth S2 forced",
     "line 2: name 'S2' is already in use"),
    ("add-synth K1", "line 1: name 'K1' is already in use"),
    ("add-synth S2 sideways", "line 1: add-synth takes NAME [forced]"),
    ("replay-code H", "line 1: 'H' is not a leaky database"),
    ("corrupt K1 mitm\nreplay-code K1",
     "line 2: 'K1' is not a leaky database"),
    (f"corrupt H leaky\nquery S {CLEAN}\nreplay-code H",
     "line 3: no device code has been stolen yet"),
], ids=["taken-by-S", "taken-by-add-synth", "taken-by-server", "bad-flag",
        "honest-H", "mitm-K1", "nothing-stolen"])
def test_add_synth_and_replay_code_fail_typed(script, message):
    with pytest.raises(ScriptError, match=re.escape(message)):
        run_scenario(ScenarioConfig(), script, seed=2)


def test_outcome_is_ok_only_when_each_prediction_comes_true():
    script = f"corrupt K1 mitm\nquery S {CLEAN}"
    right = ("query-1-matches-oracle", "cookie-secrecy", "agreement:K2:0",
             "rate-limit-attribution")
    result = run_scenario(ScenarioConfig(), script, seed=8, violated=right)
    assert result.outcome.ok, result.outcome.render()
    assert "[XFAIL] agreement:K2:0" in result.outcome.render()
    # a violation nobody predicted
    assert not run_scenario(ScenarioConfig(), script, seed=8).outcome.ok
    # a predicted violation that did not happen, or of a check never made
    for wrong in ("order-secrecy", "agreement:K9:0"):
        result = run_scenario(ScenarioConfig(), script, seed=8,
                              violated=right + (wrong,))
        assert not result.outcome.ok
        assert f"[XPASS] {wrong}" in result.outcome.render()


def test_add_synth_forced_shares_the_sigma_of_s():
    script = f"add-synth S2\nadd-synth S3 forced\nquery S3 {CLEAN}\n"
    result = run_scenario(ScenarioConfig(), script, seed=4)
    sigmas = {name: synth.chain.token.sigma
              for name, synth in result.world.synthesizers.items()}
    assert sigmas["S3"] == sigmas["S"] != sigmas["S2"]
    assert result.replies[0].overall == result.world.oracle(
        [CLEAN_SEQUENCES[0]]).overall
    assert not result.outcome.ok  # S's sigma now has two holders
    assert not next(a for a in result.outcome.assertions
                    if a.id == "rate-limit-attribution").passed


def test_script_comments_and_deliver_are_noise():
    script = f"# a comment\ndeliver\nquery S {CLEAN}\n\n"
    result = run_scenario(ScenarioConfig(), script, seed=7)
    assert result.outcome.ok


def test_drop_command_breaks_the_query():
    script = f"drop S->H:c2s:0:m0\nquery S {CLEAN}"
    result = run_scenario(ScenarioConfig(), script, seed=8)
    failed = [a for a in result.outcome.assertions
              if a.id == "query-1-matches-oracle"]
    assert failed and not failed[0].passed
    assert "MessageDropped" in failed[0].evidence


def test_inject_is_recorded_and_rejected():
    config = ScenarioConfig()
    world = build_world(config, seed=9)
    world.synth.basic_query([CLEAN_SEQUENCES[0]])
    world.net.inject("S->H", b"\xde\xad\xbe\xef")
    step = next(ev.step for ev in world.net.transcript.events
                if ev.kind == "inject")
    assert any("injection rejected" in n for n in world.net.notes)
    # the adversary's closure holds what it injected, read at that step
    kn = build_knowledge(world.net, world.backend)
    held = kn.holds_bytes(b"\xde\xad\xbe\xef")
    assert held is not None
    assert kn.items[held].rule == f"tapped at step {step}"
    with pytest.raises(ScriptError):
        world.net.inject("S->Z", b"00")


def test_inject_raises_an_untyped_server_failure():
    class Broken:
        name = "Z"

        def open_connection(self):
            return self

        def handle(self, data, term):
            raise ValueError("not a typed rejection")

    net = SimNetwork(seed=1)
    net.register_role(Broken())
    net.dial("S", "Z")
    with pytest.raises(ValueError):
        net.inject("S->Z", b"\x00")
    assert not net.notes


def test_swap_tap_replaces_bytes():
    net = SimNetwork(seed=1)

    class Echo:
        name = "E"
        net = None

        def open_connection(self):
            outer = self

            class C:
                def handle(self, data, term=None):
                    return terms.Payload.opaque(b"reply:" + data)
            return C()

        def long_term_key_atoms(self):
            return []

    net.register_role(Echo())
    net.add_tap(TapRule(Selector("X->E", "c2s", 0, nth=0), "capture",
                        name="first"))
    net.add_tap(TapRule(Selector("X->E", "c2s", 1, nth=0), "replace",
                        name="first"))
    conn0 = net.dial("X", "E")
    assert conn0.send(b"alpha") == b"reply:alpha"
    conn1 = net.dial("X", "E")
    # the second connection's first message is replaced with "alpha"
    assert conn1.send(b"bravo") == b"reply:alpha"
    advs = [ev for ev in net.transcript.events if ev.kind == "adv"]
    assert advs and advs[0].note == "delivered in place of the original"


# --- closure engine ------------------------------------------------------------


def test_record_events_carry_their_frames_header():
    # transfer classifies by the Sealed term; the frame's header agrees
    records = [ev for run in attacks.all_scenarios().values()
               for ev in run(1).world.net.transcript.records()]
    for ev in records:
        direction, seq, ct = channel.parse_record_header(ev.data)
        assert direction in (1, 2)
        assert seq == ev.seq
        assert int.from_bytes(ev.data[9:13], "big") == len(ct)
    assert len(records) > 500


def test_closure_splits_and_decrypts():
    key = bytes(range(32))
    inner = terms.cat(terms.Atom("cookie", b"\xaa" * 32), terms.nonce(b"\xbb" * 32))
    ct = aead_seal(key, 0, b"whatever")
    sealed = terms.Sealed(terms.key_atom(key).label, 0, inner, ct)
    kn = Knowledge(B)
    kn.add(sealed, "tapped")
    kn.close()
    assert kn.holds_bytes(b"\xaa" * 32) is None  # key unknown: stays sealed
    kn.add(terms.key_atom(key), "initial: corrupt role")
    kn.close()
    hit = kn.holds_bytes(b"\xaa" * 32)
    assert hit is not None
    evidence = "\n".join(kn.derivation(hit))
    assert "decrypt" in evidence and "split" in evidence


def test_closure_unblinds_with_known_scalar():
    # blinded element plus the blinding scalar: the base leaks, and the
    # derivation tree is explicit
    h = B.hash_to_group(b"secret sequence")
    base = terms.Atom("element", h.encode(), label="M(736563726574)")
    beta = B.scalar(3)
    beta_atom = terms.scalar_atom(beta.encode())
    blinded = terms.ExpTerm(base, ((beta_atom.label, 1),),
                            h.exp(beta).encode())
    kn = Knowledge(B)
    kn.add(blinded, "tapped")
    kn.close()
    assert kn.holds_atom_label("M(736563726574)") is None
    kn.add(beta_atom, "initial: corrupt synthesizer")
    kn.close()
    hit = kn.holds_atom_label("M(736563726574)")
    assert hit is not None
    assert "exp[" in "\n".join(kn.derivation(hit))


def test_closure_does_not_brute_force_the_tiny_group():
    # knowing an unrelated scalar never cancels the blind, even though the
    # concrete 11-element group cycles quickly
    h = B.hash_to_group(b"secret")
    base = terms.Atom("element", h.encode(), label="M(2e2e)")
    beta = B.scalar(10)  # order 2 mod 11: beta * beta = 1 concretely
    blinded = terms.ExpTerm(base, ((terms.scalar_atom(beta.encode()).label,
                                    1),), h.exp(beta).encode())
    other = terms.scalar_atom(B.scalar(10).encode())
    kn = Knowledge(B)
    kn.add(blinded, "tapped")
    # the adversary knows the same VALUE as a different formal object only
    # if it learned beta itself; here it did learn the scalar, so the only
    # legitimate path is the formal inverse, which is allowed:
    kn.add(other, "initial")
    kn.close()
    assert kn.holds_atom_label("M(2e2e)") is not None  # formal cancel is legal

    # but with a genuinely different scalar there is no derivation
    h2 = B.hash_to_group(b"secret2")
    base2 = terms.Atom("element", h2.encode(), label="M(3f3f)")
    blinded2 = terms.ExpTerm(
        base2, ((terms.scalar_atom(B.scalar(7).encode()).label, 1),),
        h2.exp(B.scalar(7)).encode())
    kn2 = Knowledge(B)
    kn2.add(blinded2, "tapped")
    kn2.add(terms.scalar_atom(B.scalar(2).encode()), "initial")
    kn2.close()
    assert kn2.holds_atom_label("M(3f3f)") is None


def test_channel_confidentiality_closure():
    # an honest handshake plus N <= 8 records never yields record plaintext
    import random as _random
    from dnascreen.channel import channel_send, handshake_pair, issue_tls_identity
    from dnascreen.crypto import SigningKey
    rng = _random.Random(31)
    ca = SigningKey.generate(rng)
    ident, static = issue_tls_identity(ca, "H", rng)
    client, server = handshake_pair("H", ca.verify_key, ident, static, B, rng)
    kn = Knowledge(B)
    for i in range(8):
        secret = terms.Atom("blob", b"plaintext-%d" % i)
        payload = terms.Payload(b"plaintext-%d" % i, secret)
        rec = channel_send(client if i % 2 == 0 else server, payload)
        kn.add(rec.term, "tapped")
    kn.close()
    for i in range(8):
        assert kn.holds_bytes(b"plaintext-%d" % i) is None


def test_holds_bytes_returns_first_added_atom():
    first = terms.Atom("blob", b"same bytes", "first")
    kn = Knowledge(B)
    kn.add(first, "tapped")
    kn.add(terms.Atom("nonce", b"same bytes", "second"), "tapped")
    assert kn.holds_bytes(b"same bytes") == terms.term_key(first) == ("a", "first")
    assert kn.holds_bytes(b"other bytes") is None


def test_secrecy_probe_over_honest_scenario():
    result = scenario_honest_basic(seed=41)
    net = result.world.net
    probes = probe(build_knowledge(net, result.world.backend), net.secrets)
    assert probes and all(not p.leaked for p in probes)
    assert all(p.evidence == "not derivable" for p in probes)


def test_knowledge_monotone_in_inputs():
    result = scenario_honest_basic(seed=43)
    net = result.world.net
    kn_small = build_knowledge(net, result.world.backend)
    # add a corrupt-role key: knowledge can only grow
    net.add_initial_knowledge(
        terms.key_atom(b"\x99" * 32), "extra")
    kn_big = build_knowledge(net, result.world.backend)
    assert set(kn_small.items.keys()) <= set(kn_big.items.keys())


class _RepowerEveryRound(Knowledge):
    """The closure as it was: every round powers every pair again."""

    def _exponentiate(self):
        self.powered.clear()
        return super()._exponentiate()


@pytest.mark.parametrize("name, powers, repowers", [
    ("mitm-scep", 332, 1164),
    ("mitm-scep-plus", 120, 358),
])
def test_closure_powers_each_pair_once(monkeypatch, name, powers, repowers):
    # the scenario's own closure, rebuilt from its network with a count of
    # GroupElement.power: a pair powered in an earlier round is skipped, and
    # the items, their rules and parents stay those of re-powering every round
    built = []
    real_build = closure.build_knowledge
    monkeypatch.setattr(closure, "build_knowledge",
                        lambda net, backend: built.append((net, backend))
                        or real_build(net, backend))
    attacks.all_scenarios()[name](3)
    (net, backend), = built

    calls = []
    real_power = crypto.GroupElement.power
    monkeypatch.setattr(crypto.GroupElement, "power",
                        lambda x, k: calls.append(k) or real_power(x, k))
    runs = []
    for cls in (Knowledge, _RepowerEveryRound):
        monkeypatch.setattr(closure, "Knowledge", cls)
        calls.clear()
        kn = real_build(net, backend)
        runs.append(([(k, v.rule, v.parents) for k, v in kn.items.items()],
                     len(calls)))
    (items, n), (old_items, old_n) = runs
    assert (n, old_n) == (powers, repowers)
    assert items == old_items


def test_record_slot_uniqueness_bookkeeping():
    result = scenario_honest_basic(seed=44)
    slots = result.world.net.record_key_slots()
    assert len(slots) == len(set(slots)) > 0


@pytest.mark.parametrize("resumption", [False, True])
def test_record_key_slots_are_each_senders_write_key(monkeypatch, resumption):
    # oracle: log each record frame with its sender's write key as it is sealed
    sent = {}
    original_send = channel.channel_send

    def logged_send(session, payload):
        record = original_send(session, payload)
        sent[record.data] = channel._key_label(session.send_key)
        return record

    for mod in (channel, screening, scep, attacks):
        monkeypatch.setattr(mod, "channel_send", logged_send)
    config = ScenarioConfig(resumption=resumption,
                            elt_sequences=(DEFAULT_HAZARDS[0][0],))
    script = (f"corrupt K1 mitm\n"
              f"query S {HAZ},{CLEAN}\n"
              f"resume-next S\n"
              f"query-exempt S {HAZ},{CLEAN} code=fresh\n"
              f"advance-clock 30\n"
              f"resume-next S\n"
              f"query S {CLEAN}\n")
    net = run_scenario(config, script, seed=64).world.net
    records = net.transcript.records()
    assert len(records) > 20 and all(ev.data in sent for ev in records)
    assert net.record_key_slots() == [
        (sent[ev.data], ev.direction, ev.seq) for ev in records]


@pytest.mark.parametrize("script", [
    f"query-exempt S {HAZ},{CLEAN} code=fresh",  # H dials A while serving S
    f"corrupt K1 mitm\nquery S {HAZ},{CLEAN}",  # K1 dials K2 while serving S
], ids=["auth-check", "mitm-relay"])
def test_nested_dials_keep_record_slots_unique(script):
    config = ScenarioConfig(elt_sequences=(DEFAULT_HAZARDS[0][0],))
    world = run_scenario(config, script, seed=1).world
    check = key_slot_uniqueness_assertion(world)
    assert check.passed, check.evidence


@pytest.mark.parametrize("name,unique", [
    ("honest-exemption-scep", True), ("honest-exemption-scep-plus", True),
    ("mitm-scep", True), ("mitm-scep-plus", True), ("passcode-replay", True),
    # a resumed session really does reuse its slots
    ("swap-on-off", False), ("swap-on-on", False)])
def test_record_slot_uniqueness_over_shipped_scenarios(name, unique):
    run = attacks.all_scenarios()[name]
    for seed in range(1, 5):
        check = key_slot_uniqueness_assertion(run(seed).world)
        assert check.passed == unique, (seed, check.evidence)


def test_tap_replaced_message_enters_the_closure_once():
    config = ScenarioConfig(resumption=True)
    script = (f"swap S->H:s2c:0:r1 S->H:s2c:1:r1\n"
              f"query S {CLEAN}\n"
              f"resume-next S\n"
              f"query S {HAZ}\n")
    world = run_scenario(config, script, seed=63).world
    events = world.net.transcript.events
    captured = next(ev for ev in events if ev.note.startswith("captured"))
    replaced = next(ev for ev in events if ev.note.startswith("replaced"))
    adv = events[replaced.step + 1]
    assert adv.kind == "adv" and adv.data == captured.data
    # every message that entered the network is read once, at its own step;
    # the bytes delivered in place of the original were read when captured
    tapped = [ev.step for ev in events if ev.term is not None]
    assert tapped == [ev.step for ev in events
                      if ev.kind in ("hs", "record", "inject")]
    kn = build_knowledge(world.net, world.backend)
    rules = {item.rule for item in kn.items.values()}
    assert f"tapped at step {adv.step}" not in rules
    for ev in (captured, replaced):
        assert (kn.items[terms.term_key(ev.term)].rule
                == f"tapped at step {ev.step}")


def test_notes_are_the_note_events_in_order():
    script = (f"drop S->K1:c2s:0:m0\n"
              f"query S {CLEAN}\n"
              f"query S {CLEAN}\n"
              f"inject S->H 00ff\n")
    net = run_scenario(ScenarioConfig(), script, seed=10).world.net
    assert net.notes == ["query-1 failed: MessageDropped",
                         "injection rejected: DecodeError"]
    assert net.notes == [ev.note for ev in net.transcript.events
                         if ev.kind == "note"]


def test_honest_exemption_scenario_green():
    result = scenario_honest_exemption(seed=45)
    assert result.outcome.ok, result.outcome.render()


def test_transcript_contains_stable_fields():
    result = scenario_honest_basic(seed=46)
    line = result.transcript_text.splitlines()[0]
    for key in ("step=", "t=", "kind=", "link=", "conn=", "dir=", "seq=",
                "len=", "data="):
        assert key in line


def test_run_scenario_renders_no_transcript(monkeypatch):
    renders = []
    real = simnet.Transcript.render
    monkeypatch.setattr(simnet.Transcript, "render",
                        lambda self: renders.append(self) or real(self))
    result = scenario_honest_basic(seed=46)
    assert renders == []
    # the text is rendered on each read, from the world's transcript
    first = result.transcript_text
    assert len(renders) == 1
    assert first == result.transcript_text == real(result.world.net.transcript)
    assert len(renders) == 2


def test_script_corrupt_command_applies_strategy():
    # a corrupt-but-functional database still answers queries correctly,
    # so the generic oracle assertion stays green while the corruption is
    # visible in the notes
    config = ScenarioConfig(elt_sequences=(DEFAULT_HAZARDS[0][0],))
    script = (f"corrupt H leaky\n"
              f"query-exempt S {HAZ},{CLEAN} code=fresh\n")
    result = run_scenario(config, script, seed=61)
    by_id = {a.id: a for a in result.outcome.assertions}
    assert by_id["query-1-matches-oracle"].passed
    assert any("stored the device code" in n for n in result.world.net.notes)
    assert "H" in result.world.net.corrupt


def test_script_corrupt_mitm_reports_the_damage():
    # under SCEP the corrupted keyserver drains the victim's budget, so the
    # victim's own query is denied; the script completes and reports it
    script = f"corrupt K1 mitm\nquery S {CLEAN}"
    result = run_scenario(ScenarioConfig(), script, seed=62)
    by_id = {a.id: a for a in result.outcome.assertions}
    assert not by_id["query-1-matches-oracle"].passed
    assert "RateLimited" in by_id["query-1-matches-oracle"].evidence


def test_script_corrupt_second_keyserver_relays_to_the_first():
    result = run_scenario(ScenarioConfig(),
                          f"corrupt K2 mitm\nquery S {CLEAN}", seed=62)
    mitm = result.world.keyservers["K2"]
    assert isinstance(mitm, attacks.MitmKeyserver)
    assert mitm.target == "K1"
    assert mitm.step6_result == "Authenticated" and mitm.drained > 0
    by_id = {a.id: a for a in result.outcome.assertions}
    assert "RateLimited" in by_id["query-1-matches-oracle"].evidence


def test_script_swap_command_inverts_verdict():
    # the full text-command surface of the response-swap experiment
    config = ScenarioConfig(resumption=True)
    script = (f"swap S->H:s2c:0:r1 S->H:s2c:1:r1\n"
              f"query S {CLEAN}\n"
              f"resume-next S\n"
              f"query S {HAZ}\n")
    result = run_scenario(config, script, seed=63)
    by_id = {a.id: a for a in result.outcome.assertions}
    assert by_id["query-1-matches-oracle"].passed
    # the swapped-in response inverts the second verdict
    second = by_id["query-2-matches-oracle"]
    assert not second.passed
    assert "got grant, oracle says deny" in second.evidence


@pytest.fixture
def no_cyclic_gc():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _refs_to_network_and_roles(world) -> list:
    """Weak references to the network and every server role it serves."""
    return [weakref.ref(world.net),
            *map(weakref.ref, world.net.roles.values())]


def test_dropped_world_is_freed_without_the_cyclic_collector(no_cyclic_gc):
    world = build_world(ScenarioConfig(), seed=31)
    world.synth.basic_query([DEFAULT_HAZARDS[0][0], CLEAN_SEQUENCES[0]])
    refs = _refs_to_network_and_roles(world)
    assert {"K1", "K2", "K3", "H", "A"} <= set(world.net.roles)
    del world
    assert [ref() for ref in refs] == [None] * len(refs)


@pytest.mark.parametrize("name", ["mitm-scep", "collision-forced",
                                  "passcode-replay", "swap-off-off"])
def test_dropped_attack_result_is_freed_without_the_cyclic_collector(
        no_cyclic_gc, name):
    # mitm, collision and swap keep the victim's error, whose traceback
    # frames hold the world (swap's also through the InvalidTag it was
    # raised from); mitm and passcode replace a role by a corrupt one
    result = attacks.all_scenarios()[name](5)
    refs = _refs_to_network_and_roles(result.world)
    del result
    assert [ref() for ref in refs] == [None] * len(refs)
