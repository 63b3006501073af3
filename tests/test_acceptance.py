"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE nn [PASS|FAIL]`` line (run pytest with -s
or -rA to see them). Crypto equalities are exact: tolerance zero.
"""

import functools
import itertools
import random

import pytest

from dnascreen import pki
from dnascreen.attacks import (
    all_scenarios,
    attack_mitm_rate_limit,
    attack_passcode_replay,
    attack_response_swap,
)
from dnascreen.cli import main as cli_main
from dnascreen.crypto import TEST_BACKEND, SigningKey, hash_to_group
from dnascreen.doprf import (
    blind,
    combine,
    doprf_direct,
    eval_share,
    share_key,
    shares_from_coeffs,
    unblind,
)
from dnascreen.errors import AuthBackendRejected
from dnascreen.scep import SCEP, SCEP_PLUS, RateLimitLedger, rate_limit_check
from dnascreen.scenarios import (
    CLEAN_SEQUENCES,
    DEFAULT_HAZARDS,
    ScenarioConfig,
    build_world,
    scenario_honest_basic,
)
from dnascreen.screening import DENY, GRANT, HIT_EXEMPT

B = TEST_BACKEND


def criterion(n, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {n:02d} [FAIL] {desc}")
                raise
            print(f"ACCEPTANCE {n:02d} [PASS] {desc}")
        return wrapper
    return deco


@criterion(1, "DOPRF distributed pipeline equals the direct oracle exactly")
def test_acceptance_01_doprf_oracle_equivalence():
    rng = random.Random(1001)
    for t, n in [(1, 1), (2, 3), (3, 5)]:
        k = B.random_scalar(rng)
        shares = share_key(k, n, t, rng)
        for i in range(100):
            seq = rng.randbytes(10)
            beta = B.random_nonzero_scalar(rng)
            blinded = blind(hash_to_group(seq, B), beta)
            expected = doprf_direct(seq, k)
            for subset in itertools.combinations(shares, t):
                responses = [(sh.index, eval_share(sh, blinded))
                             for sh in subset]
                assert unblind(combine(responses, t), beta) == expected


@criterion(2, "Shamir worked example: shares of 7 under 7+5x mod 11 and the "
              "exponent-space combination to 13")
def test_acceptance_02_shamir_worked_example():
    shares = shares_from_coeffs([B.scalar(7), B.scalar(5)], 3)
    assert [(s.index, s.value.value) for s in shares] == \
        [(1, 1), (2, 6), (3, 0)]
    got = combine([(1, B.element(2)), (2, B.element(18))], 2)
    assert got.value == 13 == pow(2, 7, 23)


@criterion(3, "MitM matrix: SCEP authenticates the adversary and debits the "
              "victim's ledger; SCEP+ fails at step [6] with BadClientSig")
def test_acceptance_03_mitm_matrix():
    scep_run = attack_mitm_rate_limit(SCEP, seed=7)
    assert scep_run.outcome.ok, scep_run.outcome.render()
    assert scep_run.outcome.token == "ATTACK_SUCCEEDED"
    by_id = {a.id: a for a in scep_run.outcome.assertions}
    # K2 authenticated the adversary in a session no client agrees with
    assert not by_id["agreement:K2:0"].passed
    assert scep_run.world.keyservers["K1"].step6_result == "Authenticated"
    assert by_id["victim-ledger-debited-by-adversary"].passed

    plus_run = attack_mitm_rate_limit(SCEP_PLUS, seed=7)
    assert plus_run.outcome.ok, plus_run.outcome.render()
    assert plus_run.outcome.token == "ATTACK_BLOCKED:BadClientSig"

    # deterministic under a fixed seed
    assert attack_mitm_rate_limit(SCEP, seed=7).transcript_text \
        == scep_run.transcript_text
    assert attack_mitm_rate_limit(SCEP_PLUS, seed=7).transcript_text \
        == plus_run.transcript_text


@criterion(4, "cookie secrecy: kept by honest SCEP and every SCEP+ scenario, "
              "lost to a corrupt server under SCEP")
def test_acceptance_04_cookie_secrecy():
    honest = scenario_honest_basic(seed=301, variant=SCEP)
    by_id = {a.id: a for a in honest.outcome.assertions}
    assert by_id["cookie-secrecy"].passed

    registry = all_scenarios()
    for name in ("honest-basic-scep-plus", "honest-exemption-scep-plus",
                 "mitm-scep-plus"):
        result = registry[name](301)
        by_id = {a.id: a for a in result.outcome.assertions}
        assert by_id["cookie-secrecy"].passed, name

    corrupt = attack_mitm_rate_limit(SCEP, seed=301)
    by_id = {a.id: a for a in corrupt.outcome.assertions}
    assert not by_id["cookie-secrecy"].passed
    assert not by_id["cookie-secrecy"].expected


@criterion(5, "order secrecy: s and M(s) stay out of the adversary closure "
              "in every shipped scenario, attacks included")
def test_acceptance_05_order_secrecy():
    for name, fn in all_scenarios().items():
        result = fn(302)
        order = [a for a in result.outcome.assertions
                 if a.id == "order-secrecy"]
        assert order and order[0].passed, f"{name}: {order}"


@criterion(6, "response-swap matrix: inverted verdict accepted; binding "
              "detects; disabled resumption rejects")
def test_acceptance_06_response_swap_matrix():
    inverted = attack_response_swap(True, False, seed=11)
    assert inverted.outcome.ok and inverted.outcome.token == "VERDICT_INVERTED"
    detected = attack_response_swap(True, True, seed=11)
    assert detected.outcome.ok and detected.outcome.token == "SWAP_DETECTED"
    rejected = attack_response_swap(False, False, seed=11)
    assert rejected.outcome.ok and rejected.outcome.token == "SWAP_REJECTED"
    assert any("ResumptionDisabled" in n for n in rejected.world.net.notes)


@criterion(7, "rate limiting: the mu=100 worked example and 1000 randomized "
              "histories match the rescan oracle decision-for-decision")
def test_acceptance_07_rate_limiting():
    ledger = RateLimitLedger()
    sigma, t = b"\xaa" * 16, 5_000_000
    assert rate_limit_check(ledger, sigma, 60, t, 100)
    assert rate_limit_check(ledger, sigma, 40, t + 3600, 100)
    assert not rate_limit_check(ledger, sigma, 1, t + 7200, 100)
    assert rate_limit_check(ledger, sigma, 1, t + 25 * 3600, 100)

    rng = random.Random(777)
    window = 24 * 3600
    for _ in range(1000):
        mu = rng.randrange(1, 60)
        ledger = RateLimitLedger()
        allowed_history = []
        now = rng.randrange(10 ** 7)
        sigma = rng.randbytes(6)
        for _ in range(rng.randrange(1, 10)):
            now += rng.randrange(0, int(1.5 * window))
            count = rng.randrange(0, mu + 3)
            oracle_total = sum(c for ts, c in allowed_history
                               if ts >= now - window)
            oracle_allow = oracle_total + count <= mu
            assert rate_limit_check(ledger, sigma, count, now, mu) \
                == oracle_allow
            if oracle_allow:
                allowed_history.append((now, count))


@criterion(8, "PKI: depth-3 chains validate; single-byte flips always "
              "reject; hierarchies never cross; revocation is monotone")
def test_acceptance_08_pki():
    rng = random.Random(303)
    now = 1_000_000
    start, end = 0, 2_000_000

    def hierarchy(cert_type):
        root, root_key = pki.create_root(cert_type, pki.Identity("F"), rng,
                                         start, end)
        ik = SigningKey.generate(rng)
        inter = pki.issue_certificate(root, root_key, pki.Identity("I"),
                                      ik.verify_key, pki.INTERMEDIATE, start,
                                      end, rng)
        lk = SigningKey.generate(rng)
        leaf = pki.issue_certificate(inter, ik, pki.Identity("L"),
                                     lk.verify_key, pki.LEAF, start, end, rng)
        return root, inter, leaf, lk

    m_root, m_inter, m_leaf, m_leaf_key = hierarchy(pki.MANUFACTURER)
    i_root, *_ = hierarchy(pki.INFRASTRUCTURE)
    tok = pki.issue_token(m_leaf, m_leaf_key, pki.TOKEN_SYNTHESIZER,
                          pki.SynthesizerPayload("S", 100), pki.Identity("S"),
                          SigningKey.generate(rng).verify_key, start, end, rng)
    chain = pki.CertChain(path=(m_leaf, m_inter, m_root), token=tok)
    pki.validate_chain(chain, m_root, now)

    blob = chain.encode()
    for i in range(len(blob)):
        broken = bytearray(blob)
        broken[i] ^= 0x01
        with pytest.raises(Exception):
            pki.validate_chain(pki.CertChain.decode(bytes(broken)), m_root,
                               now)

    # cross-hierarchy validation always rejects
    assert not pki.chain_is_valid(chain, i_root, now)

    # revocation monotone over 100 randomized revocation sequences
    tokens = [pki.issue_token(m_leaf, m_leaf_key, pki.TOKEN_SYNTHESIZER,
                              pki.SynthesizerPayload(f"S{i}", 10),
                              pki.Identity(f"S{i}"),
                              SigningKey.generate(rng).verify_key,
                              start, end, rng) for i in range(5)]
    chains = [pki.CertChain(path=(m_leaf, m_inter, m_root), token=t)
              for t in tokens]
    for _ in range(100):
        revs = pki.RevocationList()
        accepted = {i for i, c in enumerate(chains)
                    if pki.chain_is_valid(c, m_root, now, revs)}
        for _ in range(rng.randrange(1, 5)):
            victim = chains[rng.randrange(len(chains))]
            if rng.random() < 0.5:
                revs.revoke_sigma(victim.token.sigma)
            else:
                revs.revoke_key(victim.path[rng.randrange(3)].subject_key)
            now_accepted = {i for i, c in enumerate(chains)
                            if pki.chain_is_valid(c, m_root, now, revs)}
            assert now_accepted <= accepted
            accepted = now_accepted


@criterion(9, "exemption flow: grant iff hits are covered with a fresh "
              "code; stale codes reject; replay works once, then expires")
def test_acceptance_09_exemption_flow():
    covered = DEFAULT_HAZARDS[0][0]
    uncovered = DEFAULT_HAZARDS[1][0]
    config = ScenarioConfig(elt_sequences=(covered,))
    world = build_world(config, seed=304)

    granted = world.synth.exemption_query([covered, CLEAN_SEQUENCES[0]],
                                          world.elt_chain, world.fresh_code())
    assert granted.overall == GRANT
    assert granted.verdicts[0].flag == HIT_EXEMPT

    denied = world.synth.exemption_query([uncovered], world.elt_chain,
                                         world.fresh_code())
    assert denied.overall == DENY

    with pytest.raises(AuthBackendRejected):
        world.synth.exemption_query([covered], world.elt_chain,
                                    world.stale_code())

    replay = attack_passcode_replay(seed=304)
    by_id = {a.id: a for a in replay.outcome.assertions}
    assert by_id["stolen-code-accepted-within-window"].passed
    assert by_id["stolen-code-rejected-next-window"].passed


@criterion(10, "determinism: equal seeds give byte-identical transcripts "
               "for every scenario and attack command")
def test_acceptance_10_determinism(tmp_path, capsys):
    for name, fn in all_scenarios().items():
        assert fn(305).transcript_text == fn(305).transcript_text, name

    order = tmp_path / "order.txt"
    order.write_text(DEFAULT_HAZARDS[0][0].hex() + "\n")
    t1, t2 = tmp_path / "t1.log", tmp_path / "t2.log"
    cli_main(["run", "basic", "--order", str(order), "--seed", "42",
              "--out", str(t1)])
    cli_main(["run", "basic", "--order", str(order), "--seed", "42",
              "--out", str(t2)])
    a1, a2 = tmp_path / "a1.log", tmp_path / "a2.log"
    cli_main(["attack", "mitm", "--scep-variant", "scep", "--seed", "42",
              "--out", str(a1)])
    cli_main(["attack", "mitm", "--scep-variant", "scep", "--seed", "42",
              "--out", str(a2)])
    capsys.readouterr()  # the CLI output itself is not under test here
    assert t1.read_bytes() == t2.read_bytes()
    assert a1.read_bytes() == a2.read_bytes()
