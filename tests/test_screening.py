"""Hazard db, lookups, TOTP backend, and the end-to-end query protocols."""

import random
from collections import Counter

import pytest

from dnascreen import crypto, doprf, pki, terms, wire
from dnascreen.crypto import TEST_BACKEND, SigningKey
from dnascreen.doprf import doprf_direct
from dnascreen.errors import (
    AuthBackendRejected,
    BadCookie,
    BadEltChain,
    BadServerChain,
    InvalidSequence,
    RateLimited,
    Revoked,
    UnknownDevice,
)
from dnascreen.scep import RateLimitLedger
from dnascreen.scenarios import (
    CLEAN_SEQUENCES,
    DEFAULT_HAZARDS,
    ScenarioConfig,
    build_world,
)
from dnascreen.screening import (
    CLEAR,
    DENY,
    GRANT,
    HIT,
    HIT_EXEMPT,
    TAG_RESUME,
    ExemptionPart,
    QueryRequest,
    QueryResponse,
    Verdict,
    auth_backend_verify,
    build_hdb,
    hdb_lookup,
    oracle_query,
    query_term,
    totp_code,
)

B = TEST_BACKEND
NOW = 1_000_000_000


def test_build_hdb_empty():
    assert len(build_hdb([], B.scalar(7))) == 0


def test_build_hdb_duplicates_collapse():
    k = B.scalar(7)
    db = build_hdb([(b"AAAA", "x", "r1"), (b"AAAA", "x", "r2")], k)
    assert list(db.values()) == [("x", "r1")]


def test_build_hdb_membership_rebuild_oracle():
    rng = random.Random(3)
    k = B.scalar(5)
    hazards = [(rng.randbytes(12), f"h{i}", "reason") for i in range(20)]
    db = build_hdb(hazards, k)
    for seq, _, _ in hazards:
        assert db.get(doprf_direct(seq, k).encode()) is not None


def test_hdb_holds_no_plaintext_sequence():
    # the database keeps keyed hashes and labels, never a listed sequence
    for backend in (B, crypto.PROD_BACKEND):
        db = build_hdb(DEFAULT_HAZARDS, backend.scalar(5))
        assert len(db) == len(DEFAULT_HAZARDS)
        for seq, _, _ in DEFAULT_HAZARDS:
            for key, (name, reason) in db.items():
                assert seq not in key
                assert seq.decode() not in name + reason


def _request(k, order, cookie=b"\x11" * 32, exemption=None):
    return QueryRequest(cookie,
                        [doprf_direct(s, k).encode() for s in order],
                        exemption)


def test_hdb_lookup_hit_clear():
    k = B.scalar(5)
    db = build_hdb(list(DEFAULT_HAZARDS), k)
    req = _request(k, [DEFAULT_HAZARDS[0][0], CLEAN_SEQUENCES[0]])
    resp = hdb_lookup(db, req, RateLimitLedger(), NOW,
                      expected_cookie=b"\x11" * 32, sigma=b"s" * 16, mu=100)
    assert [v.flag for v in resp.verdicts] == [HIT, CLEAR]
    assert resp.verdicts[0].hazard_name == "toxin-alpha"
    assert resp.overall == DENY


def test_hdb_lookup_bad_cookie_and_rate_limit():
    k = B.scalar(5)
    db = build_hdb(list(DEFAULT_HAZARDS), k)
    req = _request(k, [CLEAN_SEQUENCES[0]])
    with pytest.raises(BadCookie):
        hdb_lookup(db, req, RateLimitLedger(), NOW,
                   expected_cookie=b"\x22" * 32, sigma=b"s" * 16, mu=100)
    ledger = RateLimitLedger()
    with pytest.raises(RateLimited):
        hdb_lookup(db, req, ledger, NOW, expected_cookie=b"\x11" * 32,
                   sigma=b"s" * 16, mu=0)


def _elt_fixture(rng, sequences, device="dev-1"):
    root, root_key = pki.create_root(pki.EXEMPTION, pki.Identity("F"), rng,
                                     0, 2 * NOW)
    ik = SigningKey.generate(rng)
    inter = pki.issue_certificate(root, root_key, pki.Identity("EI"),
                                  ik.verify_key, pki.INTERMEDIATE, 0, 2 * NOW,
                                  rng)
    lk = SigningKey.generate(rng)
    leaf = pki.issue_certificate(inter, ik, pki.Identity("EL"),
                                 lk.verify_key, pki.LEAF, 0, 2 * NOW, rng)
    tok = pki.issue_token(leaf, lk, pki.TOKEN_EXEMPTION,
                          pki.ExemptionPayload(tuple(sequences), device, None),
                          pki.Identity("C1"),
                          SigningKey.generate(rng).verify_key, 0, 2 * NOW, rng)
    return root, pki.CertChain(path=(leaf, inter, root), token=tok)


def test_hdb_lookup_exemption_paths():
    rng = random.Random(8)
    k = B.scalar(5)
    db = build_hdb(list(DEFAULT_HAZARDS), k)
    covered = DEFAULT_HAZARDS[0][0]
    e_root, elt_chain = _elt_fixture(rng, [covered])
    part = ExemptionPart(elt_chain.encode(), "123456",
                         [doprf_direct(covered, k).encode()])
    # valid chain + accepting backend: the hit is exempt
    resp = hdb_lookup(db, _request(k, [covered], exemption=part),
                      RateLimitLedger(), NOW, expected_cookie=b"\x11" * 32,
                      sigma=b"s" * 16, mu=100, exemption_root=e_root,
                      auth_check=lambda d, c, t: True)
    assert resp.verdicts[0].flag == HIT_EXEMPT and resp.overall == GRANT
    # backend rejects the code
    with pytest.raises(AuthBackendRejected):
        hdb_lookup(db, _request(k, [covered], exemption=part),
                   RateLimitLedger(), NOW, expected_cookie=b"\x11" * 32,
                   sigma=b"s" * 16, mu=100, exemption_root=e_root,
                   auth_check=lambda d, c, t: False)
    # chain from the wrong hierarchy root
    other_root, _ = pki.create_root(pki.EXEMPTION, pki.Identity("F2"), rng,
                                    0, 2 * NOW)
    with pytest.raises(BadEltChain):
        hdb_lookup(db, _request(k, [covered], exemption=part),
                   RateLimitLedger(), NOW, expected_cookie=b"\x11" * 32,
                   sigma=b"s" * 16, mu=100, exemption_root=other_root,
                   auth_check=lambda d, c, t: True)


def test_hazard_not_in_elt_still_denied():
    rng = random.Random(9)
    k = B.scalar(5)
    db = build_hdb(list(DEFAULT_HAZARDS), k)
    uncovered = DEFAULT_HAZARDS[1][0]
    e_root, elt_chain = _elt_fixture(rng, [DEFAULT_HAZARDS[0][0]])
    part = ExemptionPart(
        elt_chain.encode(), "123456",
        [doprf_direct(DEFAULT_HAZARDS[0][0], k).encode()])
    resp = hdb_lookup(db, _request(k, [uncovered], exemption=part),
                      RateLimitLedger(), NOW, expected_cookie=b"\x11" * 32,
                      sigma=b"s" * 16, mu=100, exemption_root=e_root,
                      auth_check=lambda d, c, t: True)
    assert resp.verdicts[0].flag == HIT and resp.overall == DENY


def test_exemption_soundness_randomized():
    # Grant with hits present implies every hit is in the validated list.
    # The pool is drawn collision-free under the keyed hash: in the tiny
    # test group distinct sequences can share a keyed hash, which would
    # make the literal form of the property untestable.
    rng = random.Random(12)
    k = B.scalar(5)
    pool, seen = [], set()
    while len(pool) < 9:
        s = rng.randbytes(10)
        e = doprf_direct(s, k).encode()
        if e not in seen:
            seen.add(e)
            pool.append(s)
    hazards = [(s, f"h{i}", "") for i, s in enumerate(pool[:4])]
    db = build_hdb(hazards, k)
    for _ in range(60):
        order = rng.sample(pool, rng.randrange(1, 6))
        exempt = rng.sample(pool, rng.randrange(0, 6))
        e_root, chain = _elt_fixture(rng, exempt)
        part = ExemptionPart(chain.encode(), "000000",
                             [doprf_direct(s, k).encode() for s in exempt])
        resp = hdb_lookup(db, _request(k, order, exemption=part),
                          RateLimitLedger(), NOW,
                          expected_cookie=b"\x11" * 32, sigma=b"s" * 16,
                          mu=1000, exemption_root=e_root,
                          auth_check=lambda d, c, t: True)
        oracle = oracle_query(order, k, db, tuple(exempt))
        assert [v.flag for v in resp.verdicts] == \
            [v.flag for v in oracle.verdicts]
        if resp.overall == GRANT:
            for s, v in zip(order, resp.verdicts):
                if v.flag == HIT_EXEMPT:
                    assert s in exempt


def test_query_message_roundtrips():
    k = B.scalar(5)
    part = ExemptionPart(b"chainbytes", "123456",
                         [doprf_direct(b"x", k).encode()])
    req = _request(k, [b"abc", b"def"], exemption=part)
    again = QueryRequest.decode(query_term(req).data)
    assert again.hashed == req.hashed
    assert again.exemption.auth_code == "123456"
    resp = QueryResponse([Verdict(HIT, "n", "r"), Verdict(CLEAR)], DENY)
    again = QueryResponse.decode_core(resp.encode_core())
    assert again.overall == DENY and again.verdicts == resp.verdicts


def test_totp_single_window_policy():
    secret = b"\x01" * 16
    t = 1_000_000_015
    code = totp_code(secret, t)
    assert len(code) == 6 and code.isdigit()
    devices = {"dev-1": secret}
    assert auth_backend_verify(devices, "dev-1", code, t)
    # same window boundary behaviour: both times inside one 30s window agree
    assert auth_backend_verify(devices, "dev-1", code, (t // 30) * 30)
    # the previous window's code is rejected now
    stale = totp_code(secret, t - 30)
    assert not auth_backend_verify(devices, "dev-1", stale, t)
    with pytest.raises(UnknownDevice):
        auth_backend_verify(devices, "nope", code, t)


# --- end-to-end through the simulator -------------------------------------------


def test_basic_query_verdicts_match_oracle_randomized():
    # 100 random orders end-to-end against the no-network oracle
    world = build_world(ScenarioConfig(rate_limit=10_000), seed=21)
    rng = random.Random(4)
    pool = [seq for seq, _, _ in DEFAULT_HAZARDS] + CLEAN_SEQUENCES
    for _ in range(100):
        order = rng.sample(pool, rng.randrange(1, 4))
        got = world.synth.basic_query(order)
        expected = world.oracle(order)
        assert got.overall == expected.overall
        assert got.verdicts == expected.verdicts


def test_exemption_query_end_to_end():
    covered = DEFAULT_HAZARDS[0][0]
    config = ScenarioConfig(elt_sequences=(covered,))
    world = build_world(config, seed=22)
    order = [covered, CLEAN_SEQUENCES[0]]
    resp = world.synth.exemption_query(order, world.elt_chain,
                                       world.fresh_code())
    assert resp.overall == GRANT
    assert [v.flag for v in resp.verdicts] == [HIT_EXEMPT, CLEAR]


def test_exemption_query_wrong_code_rejected():
    covered = DEFAULT_HAZARDS[0][0]
    world = build_world(ScenarioConfig(elt_sequences=(covered,)), seed=23)
    with pytest.raises(AuthBackendRejected):
        world.synth.exemption_query([covered], world.elt_chain,
                                    world.stale_code())


def test_sequence_length_bounds():
    world = build_world(ScenarioConfig(), seed=24)
    with pytest.raises(InvalidSequence):
        world.synth.basic_query([b""])
    with pytest.raises(InvalidSequence):
        world.synth.basic_query([b"A" * 31])


def test_rate_limited_query_raises():
    config = ScenarioConfig(rate_limit=3)
    world = build_world(config, seed=25)
    world.synth.basic_query([CLEAN_SEQUENCES[0], CLEAN_SEQUENCES[1]])
    with pytest.raises(RateLimited):
        world.synth.basic_query([CLEAN_SEQUENCES[0], CLEAN_SEQUENCES[1]])


def test_refused_exemption_query_debits_no_keyserver():
    # n + m = 4 > mu = 3: the one batch is refused before any debit, as
    # rate_limit_check says a denied request consumes no budget
    covered = DEFAULT_HAZARDS[0][0]
    config = ScenarioConfig(rate_limit=3,
                            elt_sequences=(covered, DEFAULT_HAZARDS[1][0]))
    world = build_world(config, seed=25)
    with pytest.raises(RateLimited):
        world.synth.exemption_query([covered, CLEAN_SEQUENCES[0]],
                                    world.elt_chain, world.fresh_code())
    sigma, now = world.synth.chain.token.sigma, world.net.now()
    dialled = world.synth.config.keyservers[:world.synth.config.threshold]
    assert [world.keyservers[name].ledger.window_total(sigma, now)
            for name in dialled] == [0, 0]


def test_response_binding_verified_end_to_end():
    config = ScenarioConfig(bind_responses=True)
    world = build_world(config, seed=26)
    got = world.synth.basic_query([DEFAULT_HAZARDS[0][0]])
    assert got.overall == DENY


def test_database_resumes_only_a_session_it_cached():
    # the role decides: with resumption off H caches no session, so the
    # resume it accepts with resumption on gets resume-reject
    sent, answers = [], []
    for resumption in (True, False):
        world = build_world(ScenarioConfig(resumption=resumption), seed=29)
        world.synth.basic_query([CLEAN_SEQUENCES[0]])
        assert bool(world.hdb.session_cache) is resumption
        resume = terms.cat(TAG_RESUME, terms.blob(
            world.synth._hdb_session.session_id()))
        sent.append(resume.data)
        reply = world.net.dial("S", "H").send(resume)
        answers.append(wire.unpack_fields(reply))
    assert sent[0] == sent[1]
    assert answers == [[b"resume-ok"], [b"resume-reject"]]


def test_keyservers_cache_no_session():
    # only the database offers resumption: a keyserver caches nothing, so
    # S's own K1 session id gets resume-reject even with resumption on
    world = build_world(ScenarioConfig(resumption=True), seed=29)
    links = []
    connect = world.synth._connect

    def recording(server, try_resume=False):
        links.append(connect(server, try_resume))
        return links[-1]

    world.synth._connect = recording
    world.synth.basic_query([CLEAN_SEQUENCES[0]])
    world.synth.basic_query([CLEAN_SEQUENCES[1]], resume_hdb=True)
    assert [ks.session_cache for ks in world.keyservers.values()] == [{}] * 3
    k1 = next(link.channel for link in links if link.conn.dst == "K1")
    reply = world.net.dial("S", "K1").send(terms.cat(
        TAG_RESUME, terms.blob(k1.session_id())))
    assert wire.unpack_fields(reply) == [b"resume-reject"]


@pytest.mark.parametrize("resumption", [False, True])
def test_synthesizer_asks_to_resume_only_when_configured(resumption):
    world = build_world(ScenarioConfig(resumption=resumption), seed=29)
    world.synth.basic_query([CLEAN_SEQUENCES[0]])
    world.synth.basic_query([CLEAN_SEQUENCES[1]], resume_hdb=True)
    tags = [wire.unpack_fields(ev.data)[0]
            for ev in world.net.transcript.events
            if ev.kind == "hs" and ev.link == "S->H" and ev.direction == "c2s"]
    handshake = [b"client-hello", b"client-kex"]
    assert tags == handshake + ([b"resume"] if resumption else handshake)
    assert world.net.notes == (
        ["resumed channel to H"] if resumption
        else ["resumption attempt failed: ResumptionDisabled"])


def test_prod_backend_end_to_end():
    config = ScenarioConfig(backend_name="prod")
    world = build_world(config, seed=27)
    order = [DEFAULT_HAZARDS[0][0], CLEAN_SEQUENCES[0]]
    got = world.synth.basic_query(order)
    expected = world.oracle(order)
    assert got.overall == expected.overall == DENY
    assert got.verdicts == expected.verdicts


def test_prod_exemption_query_end_to_end():
    covered = DEFAULT_HAZARDS[0][0]
    config = ScenarioConfig(backend_name="prod", elt_sequences=(covered,))
    world = build_world(config, seed=28)
    order = [covered, CLEAN_SEQUENCES[0]]
    got = world.synth.exemption_query(order, world.elt_chain,
                                      world.fresh_code())
    expected = world.oracle(order, (covered,))
    assert got.overall == expected.overall == GRANT
    assert got.verdicts == expected.verdicts


def test_kept_chains_are_refused_once_revoked():
    # one exemption query fills each role's store; a revocation still
    # refuses the kept chain on the next connection
    covered = DEFAULT_HAZARDS[0][0]
    world = build_world(ScenarioConfig(elt_sequences=(covered,)), seed=33)
    world.synth.exemption_query([covered], world.elt_chain, world.fresh_code())
    assert world.elt_chain.encode() in world.hdb.peer_chains.chains
    world.hdb.elt_revocations.revoke_sigma(world.elt_chain.token.sigma)
    with pytest.raises(BadEltChain):
        world.synth.exemption_query([covered], world.elt_chain,
                                    world.fresh_code())
    k1 = world.keyservers["K1"]
    assert world.synth.chain.encode() in k1.peer_chains.chains
    k1.scep_config.revocations.revoke_sigma(world.synth.chain.token.sigma)
    with pytest.raises(Revoked):
        world.synth.basic_query([CLEAN_SEQUENCES[0]])


def test_synthesizer_refuses_a_revoked_keyserver_token():
    world = build_world(ScenarioConfig(), seed=34)
    world.synth.basic_query([CLEAN_SEQUENCES[0]])
    k1_chain = world.keyservers["K1"].scep_config.chain
    assert k1_chain.encode() in world.synth.peer_chains.chains
    world.synth.revocations.revoke_sigma(k1_chain.token.sigma)
    with pytest.raises(BadServerChain, match="revoked"):
        world.synth.basic_query([CLEAN_SEQUENCES[0]])


def test_each_query_validates_every_chain_in_full(monkeypatch):
    world = build_world(ScenarioConfig(), seed=31)
    verifies = []
    real = crypto.VerifyKey.verify
    monkeypatch.setattr(crypto.VerifyKey, "verify",
                        lambda key, msg, sig: verifies.append(msg)
                        or real(key, msg, sig))
    for _ in range(2):
        verifies.clear()
        world.synth.basic_query([CLEAN_SEQUENCES[0]])
        assert len(verifies) == 36
    # the second query's sessions share the chains the first one decoded
    k1_chains = [entry["session"].client_chain
                 for entry in world.net.server_sessions.values()
                 if entry["server"] == "K1"]
    assert len(k1_chains) == 2 and k1_chains[0] is k1_chains[1]


def test_roles_keep_separate_peer_chains():
    covered = DEFAULT_HAZARDS[0][0]
    world = build_world(ScenarioConfig(elt_sequences=(covered,)), seed=32)
    world.synth.exemption_query([covered], world.elt_chain, world.fresh_code())
    dialed = world.keyserver_names[:world.config.threshold]
    assert set(world.synth.peer_chains.chains) == {
        *(world.keyservers[n].scep_config.chain.encode() for n in dialed),
        world.hdb.scep_config.chain.encode()}
    assert set(world.hdb.peer_chains.chains) == {world.synth.chain.encode(),
                                                 world.elt_chain.encode()}
    for name in dialed:
        assert set(world.keyservers[name].peer_chains.chains) == {
            world.synth.chain.encode()}
    roles = [world.synth, *world.keyservers.values(), world.hdb, world.auth]
    stores = [role.peer_chains for role in roles]
    assert len({id(store) for store in stores}) == len(stores)
    kept = [chain for store in stores for chain in store.chains.values()]
    kept_parts = [part for chain in kept
                  for part in (chain.token, *chain.ancestors, *chain.path)]
    issued = [world.synth.chain, world.elt_chain,
              *(ks.scep_config.chain for ks in world.keyservers.values()),
              world.hdb.scep_config.chain]
    issued_parts = {id(part) for chain in issued
                    for part in (chain.token, *chain.path)}
    assert len({id(c) for c in kept}) == len(kept) == 7
    assert len({id(p) for p in kept_parts}) == len(kept_parts)
    assert issued_parts.isdisjoint(id(p) for p in kept_parts)


def count_operations(monkeypatch, query) -> Counter:
    """Calls of GroupElement.exp outside hash_to_group, GroupBackend.element
    and VerifyKey.verify made by ``query()``: the operations perfbench pins."""
    counts = Counter()
    hashing = []
    real_hash = crypto.hash_to_group

    def hash_to_group(msg, backend):
        hashing.append(msg)
        try:
            return real_hash(msg, backend)
        finally:
            hashing.pop()

    def counted(key, real, skip_in_hash=False):
        def wrapper(*args):
            if not (skip_in_hash and hashing):
                counts[key] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(crypto, "hash_to_group", hash_to_group)
    monkeypatch.setattr(doprf, "hash_to_group", hash_to_group)
    monkeypatch.setattr(crypto.GroupElement, "exp",
                        counted("exp", crypto.GroupElement.exp, True))
    monkeypatch.setattr(crypto.GroupBackend, "element",
                        counted("member", crypto.GroupBackend.element))
    monkeypatch.setattr(crypto.VerifyKey, "verify",
                        counted("verify", crypto.VerifyKey.verify))
    query()
    return counts


@pytest.mark.parametrize("n", [1, 2])
def test_prod_basic_query_operation_counts(monkeypatch, n):
    world = build_world(ScenarioConfig(backend_name="prod"), seed=29)
    order = CLEAN_SEQUENCES[:n]
    counts = count_operations(monkeypatch,
                              lambda: world.synth.basic_query(order))
    assert counts == {"exp": 12 + 6 * n, "member": 6 + 4 * n, "verify": 36}


@pytest.mark.parametrize("n", [1, 3])
def test_prod_short_products_are_the_lagrange_coefficients(monkeypatch, n):
    # every other product takes the X25519 ladders; at t = 2 the combine's
    # coefficients 2 and -1 (a negated k = 1) are all that _ed_mul sees
    world = build_world(ScenarioConfig(backend_name="prod"), seed=29)
    ks, ed_mul = [], crypto._ed_mul
    monkeypatch.setattr(crypto, "_ed_mul",
                        lambda v, k: ks.append(k) or ed_mul(v, k))
    world.synth.basic_query(CLEAN_SEQUENCES[:n])
    assert len(ks) == 2 * n
    assert Counter(ks) == {1: n, 2: n}


def test_prod_exemption_query_operation_counts(monkeypatch):
    covered = DEFAULT_HAZARDS[0][0]
    world = build_world(ScenarioConfig(backend_name="prod",
                                       elt_sequences=(covered,)), seed=30)
    order = [covered, CLEAN_SEQUENCES[0]]
    counts = count_operations(monkeypatch, lambda: world.synth.exemption_query(
        order, world.elt_chain, world.fresh_code()))
    m = len(order) + 1  # the order's sequences and the exemption list's one
    assert counts == {"exp": 16 + 6 * m, "member": 8 + 4 * m, "verify": 42}
