"""The attack scenarios and their declared outcomes."""

import importlib.util
from pathlib import Path

import pytest

from dnascreen.attacks import (
    all_scenarios,
    attack_mitm_rate_limit,
    attack_passcode_replay,
    attack_response_swap,
    attack_token_collision_dos,
)
from dnascreen.errors import RateLimited, ScriptError
from dnascreen.scenarios import (
    CLEAN_SEQUENCES,
    DEFAULT_HAZARDS,
    ScenarioConfig,
    agreement_assertions,
    attribution_assertion,
    run_scenario,
)
from dnascreen.scep import SCEP, SCEP_PLUS
from dnascreen.screening import GRANT


def by_id(result, assertion_id):
    for a in result.outcome.assertions:
        if a.id == assertion_id:
            return a
    raise AssertionError(f"no assertion {assertion_id!r} in "
                         f"{result.outcome.render()}")


def test_mitm_under_scep_succeeds():
    result = attack_mitm_rate_limit(SCEP, seed=7)
    assert result.outcome.ok, result.outcome.render()
    assert result.outcome.token == "ATTACK_SUCCEEDED"
    mitm = result.world.keyservers["K1"]
    assert mitm.step6_result == "Authenticated"
    assert by_id(result, "victim-ledger-debited-by-adversary").passed
    assert by_id(result, "victim-budget-exhausted-up-to-mu").passed
    # the victim's own query is denied by the stolen budget
    assert isinstance(result.replies[0], RateLimited)
    assert not by_id(result, "query-1-matches-oracle").passed
    # exactly one authenticated session lacks its client: the relayed one
    unmatched = [a for a in result.outcome.assertions
                 if a.id.startswith("agreement:") and not a.passed]
    assert [a.id for a in unmatched] == ["agreement:K2:0"]
    relayed = list(result.world.net.server_sessions.values())[0]
    assert relayed["session"].omega == mitm.attack_cookie
    assert not by_id(result, "rate-limit-attribution").passed
    leak = by_id(result, "cookie-secrecy")
    assert not leak.passed and not leak.expected and "decrypt" in leak.evidence


def test_mitm_under_scep_plus_blocked():
    result = attack_mitm_rate_limit(SCEP_PLUS, seed=7)
    assert result.outcome.ok, result.outcome.render()
    assert result.outcome.token == "ATTACK_BLOCKED:BadClientSig"
    assert by_id(result, "query-1-matches-oracle").passed
    assert result.world.keyservers["K1"].drained == 0
    assert by_id(result, "rate-limit-attribution").passed
    assert all(a.passed for a in result.outcome.assertions
               if a.id.startswith("agreement:"))
    assert by_id(result, "cookie-secrecy").passed


def test_agreement_ids_count_every_recorded_server_session():
    # under SCEP+ the target records the relayed session at respond time and
    # then rejects its finish; that session keeps its index in the ids
    result = attack_mitm_rate_limit(SCEP_PLUS, seed=7)
    net = result.world.net
    assert [(e["server"], e["auth"] is not None)
            for e in net.server_sessions.values()] == [
        ("K2", False), ("K2", True), ("H", True)]
    assert [a.id for a in agreement_assertions(result.world)] == [
        "agreement:K2:1", "agreement:H:2"]


def test_mitm_needs_a_second_keyserver():
    with pytest.raises(ScriptError):
        attack_mitm_rate_limit(base=ScenarioConfig(n_keyservers=1,
                                                   threshold=1))


def test_mitm_is_deterministic():
    a = attack_mitm_rate_limit(SCEP, seed=70)
    b = attack_mitm_rate_limit(SCEP, seed=70)
    assert a.transcript_text == b.transcript_text


# what each old swap assertion claimed, as query 2's check now records it
SECOND_QUERY_EVIDENCE = {
    "synthesizer-accepts-inverted-verdict": "got grant, oracle says deny",
    "swap-detected-by-response-binding": "ResponseBindingMismatch",
    "swap-rejected-by-key-mismatch": "AuthenticationFailure",
}


@pytest.mark.parametrize("resumption,binding,token,key_assertion", [
    (True, False, "VERDICT_INVERTED", "synthesizer-accepts-inverted-verdict"),
    (True, True, "SWAP_DETECTED", "swap-detected-by-response-binding"),
    (False, False, "SWAP_REJECTED", "swap-rejected-by-key-mismatch"),
    (False, True, "SWAP_REJECTED", "swap-rejected-by-key-mismatch"),
])
def test_response_swap_matrix(resumption, binding, token, key_assertion):
    result = attack_response_swap(resumption, binding, seed=11)
    assert result.outcome.ok, result.outcome.render()
    assert result.outcome.token == token
    assert by_id(result, "query-1-matches-oracle").passed
    check = by_id(result, "query-2-matches-oracle")
    assert not check.passed and not check.expected
    assert SECOND_QUERY_EVIDENCE[key_assertion] in check.evidence
    if not resumption:
        assert any("ResumptionDisabled" in n for n in result.world.net.notes)
        assert by_id(result, "record-slot-uniqueness").passed


def test_passcode_replay():
    result = attack_passcode_replay(seed=13)
    assert result.outcome.ok, result.outcome.render()
    assert result.outcome.token == "REPLAY_ACCEPTED"
    assert by_id(result, "query-1-matches-oracle").passed
    assert result.replies[0].overall == GRANT
    assert by_id(result, "stolen-code-accepted-within-window").passed
    assert by_id(result, "stolen-code-rejected-next-window").passed


def test_token_collision_matrix():
    forced = attack_token_collision_dos(True, seed=17)
    assert forced.outcome.ok, forced.outcome.render()
    assert forced.outcome.token == "BUDGET_MERGED"
    world = forced.world
    sigma = world.synth.chain.token.sigma
    assert world.synthesizers["S2"].chain.token.sigma == sigma
    holders = {e["auth"].client_name
               for e in world.net.server_sessions.values()
               if e["auth"] is not None and e["auth"].sigma == sigma}
    assert holders == {"S", "S2"}
    attribution = by_id(forced, "rate-limit-attribution")
    assert not attribution.passed and "S, S2" in attribution.evidence
    # the merged ledger entry holds mu, and the victim's follow-up is denied
    assert world.keyservers["K1"].ledger.window_total(
        sigma, world.net.now()) == 100
    assert isinstance(forced.replies[-1], RateLimited)
    assert not by_id(forced, "query-11-matches-oracle").expected

    distinct = attack_token_collision_dos(False, seed=17)
    assert distinct.outcome.ok, distinct.outcome.render()
    assert distinct.outcome.token == "INDEPENDENT_BUDGETS"
    world = distinct.world
    assert by_id(distinct, "query-11-matches-oracle").passed
    assert by_id(distinct, "rate-limit-attribution").passed
    # the adversary's spending left the victim's ledger entry alone
    assert world.keyservers["K1"].ledger.window_total(
        world.synth.chain.token.sigma, world.net.now()) == 3


def test_every_shipped_scenario_is_green_and_deterministic():
    for name, fn in all_scenarios().items():
        a = fn(99)
        assert a.outcome.ok, f"{name}: {a.outcome.render()}"
        b = fn(99)
        assert a.transcript_text == b.transcript_text, f"{name} not deterministic"


def test_order_secrecy_in_every_shipped_scenario():
    for name, fn in all_scenarios().items():
        result = fn(55)
        order = [a for a in result.outcome.assertions
                 if a.id == "order-secrecy"]
        assert order and order[0].passed, f"{name}: {order}"


def _brute_force_agreement(world) -> list:
    """The agreement matcher as a scan of every client session."""
    net = world.net
    out = []
    for i, entry in net.honest_authenticated_sessions():
        sp = entry["session"].params()
        n = sum(1 for c in net.client_sessions
                if c["server"] == entry["server"]
                and c["client"] == entry["auth"].client_name
                and all(c[p] == sp[p] for p in
                        ("r_s", "r_w", "omega", "client_token",
                         "server_token")))
        out.append((f"agreement:{entry['server']}:{i}", n == 1,
                    f"{n} honest client sessions share these parameters"))
    return out


def _fingerprint_adversary_script() -> str:
    path = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"
    spec = importlib.util.spec_from_file_location("fingerprint", path)
    fingerprint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fingerprint)
    return fingerprint.adversary_script(DEFAULT_HAZARDS, CLEAN_SEQUENCES)


@pytest.mark.parametrize("seed", [1, 12, 40])
def test_indexed_agreement_matches_a_brute_force_scan(seed):
    results = [fn(seed) for fn in all_scenarios().values()]
    script = _fingerprint_adversary_script()
    results += [run_scenario(ScenarioConfig(
        resumption=resumption, elt_sequences=(DEFAULT_HAZARDS[0][0],)),
        script, seed) for resumption in (False, True)]
    verdicts = set()
    for result in results:
        got = [(a.id, a.passed, a.evidence)
               for a in agreement_assertions(result.world)]
        assert got == _brute_force_agreement(result.world), result.outcome.name
        verdicts |= {passed for _, passed, _ in got}
    assert verdicts == {True, False}  # mitm-scep's relayed session fails


@pytest.mark.parametrize("name,flagged", [
    ("collision-forced", True), ("mitm-scep", True),
    ("collision-distinct", False), ("mitm-scep-plus", False),
    ("honest-basic-scep", False)])
def test_attribution_flags_debits_no_single_holder_made(name, flagged):
    # collision-forced: one sigma, two holders; mitm-scep: K2 authenticated
    # the victim's sigma in a session no client of its holder agrees with
    for seed in (2, 9):
        check = attribution_assertion(all_scenarios()[name](seed).world)
        assert check.passed is not flagged, (seed, check.evidence)
