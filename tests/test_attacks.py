"""The attack scenarios and their declared outcomes."""

import pytest

from dnascreen.attacks import (
    all_scenarios,
    attack_mitm_rate_limit,
    attack_passcode_replay,
    attack_response_swap,
    attack_token_collision_dos,
)
from dnascreen.errors import ScriptError
from dnascreen.scenarios import ScenarioConfig, agreement_assertions
from dnascreen.scep import SCEP, SCEP_PLUS


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
    assert by_id(result, "server-authenticated-adversary-as-victim").passed
    assert by_id(result, "victim-ledger-debited-by-adversary").passed
    assert by_id(result, "victim-budget-exhausted-up-to-mu").passed
    assert by_id(result, "no-honest-client-session-agrees").passed
    leak = by_id(result, "cookie-leaked-as-predicted")
    assert leak.passed and "decrypt" in leak.evidence


def test_mitm_under_scep_plus_blocked():
    result = attack_mitm_rate_limit(SCEP_PLUS, seed=7)
    assert result.outcome.ok, result.outcome.render()
    assert result.outcome.token == "ATTACK_BLOCKED:BadClientSig"
    assert by_id(result, "attack-blocked-at-step-6").passed
    assert by_id(result, "victim-query-unaffected").passed
    assert by_id(result, "injective-agreement-holds").passed
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
    assert by_id(result, key_assertion).passed
    if not resumption:
        assert by_id(result, "resumption-disabled-error-observed").passed


def test_passcode_replay():
    result = attack_passcode_replay(seed=13)
    assert result.outcome.ok, result.outcome.render()
    assert result.outcome.token == "REPLAY_ACCEPTED"
    assert by_id(result, "honest-exemption-flow-grants").passed
    assert by_id(result, "stolen-code-accepted-within-window").passed
    assert by_id(result, "stolen-code-rejected-next-window").passed


def test_token_collision_matrix():
    forced = attack_token_collision_dos(True, seed=17)
    assert forced.outcome.ok, forced.outcome.render()
    assert forced.outcome.token == "BUDGET_MERGED"
    assert by_id(forced, "both-tokens-authenticate-independently").passed
    assert by_id(forced, "honest-token-denied-after-merge").passed

    distinct = attack_token_collision_dos(False, seed=17)
    assert distinct.outcome.ok, distinct.outcome.render()
    assert distinct.outcome.token == "INDEPENDENT_BUDGETS"


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
