"""Certificate hierarchies, tokens, chain validation, revocation."""

import random
from dataclasses import replace

import pytest

from dnascreen import pki, wire
from dnascreen.crypto import SigningKey
from dnascreen.errors import (
    BadSignature,
    DecodeError,
    Expired,
    LevelViolation,
    NoSubtokenKey,
    NotASubset,
    Revoked,
    ScreeningError,
    TypeMismatch,
    UntrustedRoot,
)

NOW = 1_000_000
START, END = 0, 2_000_000


@pytest.fixture
def rng():
    return random.Random(42)


def build_hierarchy(rng, cert_type=pki.MANUFACTURER):
    root, root_key = pki.create_root(cert_type, pki.Identity("F", "f@x"), rng,
                                     START, END)
    inter_key = SigningKey.generate(rng)
    inter = pki.issue_certificate(root, root_key, pki.Identity("I"),
                                  inter_key.verify_key, pki.INTERMEDIATE,
                                  START, END, rng)
    leaf_key = SigningKey.generate(rng)
    leaf = pki.issue_certificate(inter, inter_key, pki.Identity("L"),
                                 leaf_key.verify_key, pki.LEAF, START, END, rng)
    return root, root_key, inter, inter_key, leaf, leaf_key


def synth_token(rng, leaf, leaf_key, mu=100, name="S1"):
    subject_key = SigningKey.generate(rng)
    tok = pki.issue_token(leaf, leaf_key, pki.TOKEN_SYNTHESIZER,
                          pki.SynthesizerPayload(name, mu), pki.Identity(name),
                          subject_key.verify_key, START, END, rng)
    return tok, subject_key


def test_root_self_signed(rng):
    root, _ = pki.create_root(pki.MANUFACTURER, pki.Identity("F"), rng)
    assert root.subject_key.verify(root.signed_portion(), root.signature)
    assert root.desc.level == pki.ROOT


def test_roots_have_distinct_sigma(rng):
    roots = [pki.create_root(pki.MANUFACTURER, pki.Identity("F"), rng)[0]
             for _ in range(3)]
    assert len({r.sigma for r in roots}) == 3


def test_bare_root_chain_validates(rng):
    root, _ = pki.create_root(pki.INFRASTRUCTURE, pki.Identity("F"), rng,
                              START, END)
    pki.validate_chain(pki.CertChain(path=(root,)), root, NOW)


def test_depth3_chain_with_token_validates(rng):
    root, _, inter, _, leaf, leaf_key = build_hierarchy(rng)
    tok, _ = synth_token(rng, leaf, leaf_key)
    chain = pki.CertChain(path=(leaf, inter, root), token=tok)
    pki.validate_chain(chain, root, NOW)


def test_leaf_cannot_issue_certificates(rng):
    _, _, _, _, leaf, leaf_key = build_hierarchy(rng)
    with pytest.raises(LevelViolation):
        pki.issue_certificate(leaf, leaf_key, pki.Identity("X"),
                              SigningKey.generate(rng).verify_key, pki.LEAF,
                              START, END, rng)


def test_root_cannot_skip_to_leaf(rng):
    root, root_key, *_ = build_hierarchy(rng)
    with pytest.raises(LevelViolation):
        pki.issue_certificate(root, root_key, pki.Identity("X"),
                              SigningKey.generate(rng).verify_key, pki.LEAF,
                              START, END, rng)


def test_cross_hierarchy_token_issuance_rejected(rng):
    _, _, _, _, leaf, leaf_key = build_hierarchy(rng, pki.EXEMPTION)
    with pytest.raises(TypeMismatch):
        pki.issue_token(leaf, leaf_key, pki.TOKEN_SYNTHESIZER,
                        pki.SynthesizerPayload("S1", 10), pki.Identity("S1"),
                        SigningKey.generate(rng).verify_key, START, END, rng)


def test_only_leaves_issue_tokens(rng):
    _, _, inter, inter_key, _, _ = build_hierarchy(rng)
    with pytest.raises(LevelViolation):
        pki.issue_token(inter, inter_key, pki.TOKEN_SYNTHESIZER,
                        pki.SynthesizerPayload("S1", 10), pki.Identity("S1"),
                        SigningKey.generate(rng).verify_key, START, END, rng)


def test_rate_limit_is_any_u64(rng):
    _, _, _, _, leaf, leaf_key = build_hierarchy(rng)
    tok, _ = synth_token(rng, leaf, leaf_key, mu=2 ** 64 - 1)
    assert tok.payload.rate_limit == 2 ** 64 - 1
    with pytest.raises(ValueError):
        pki.SynthesizerPayload("S1", 2 ** 64)


def test_database_token_payload_empty(rng):
    _, _, _, _, leaf, leaf_key = build_hierarchy(rng, pki.INFRASTRUCTURE)
    tok = pki.issue_token(leaf, leaf_key, pki.TOKEN_DATABASE,
                          pki.DatabasePayload(), pki.Identity("H"),
                          SigningKey.generate(rng).verify_key, START, END, rng)
    assert tok.payload.encode() == b""
    with pytest.raises(TypeMismatch):
        pki.issue_token(leaf, leaf_key, pki.TOKEN_DATABASE,
                        pki.KeyserverPayload(1), pki.Identity("H"),
                        SigningKey.generate(rng).verify_key, START, END, rng)


def exemption_setup(rng, seqs=(b"\x01\x02", b"\x03\x04", b"\x05\x06")):
    root, _, inter, _, leaf, leaf_key = build_hierarchy(rng, pki.EXEMPTION)
    sub_key = SigningKey.generate(rng)
    tok = pki.issue_token(
        leaf, leaf_key, pki.TOKEN_EXEMPTION,
        pki.ExemptionPayload(tuple(seqs), "authdev-1", sub_key.verify_key),
        pki.Identity("C1"), SigningKey.generate(rng).verify_key,
        START, END, rng)
    return root, inter, leaf, tok, sub_key


def test_exemption_token_carries_device_id(rng):
    _, _, _, tok, _ = exemption_setup(rng)
    assert tok.payload.device_id == "authdev-1"


def test_subtoken_improper_empty_and_foreign(rng):
    root, inter, leaf, tok, sub_key = exemption_setup(rng)
    full = pki.issue_subtoken(tok, sub_key, tok.payload.sequences, rng)
    assert set(full.payload.sequences) == set(tok.payload.sequences)
    empty = pki.issue_subtoken(tok, sub_key, (), rng)
    assert empty.payload.sequences == ()
    with pytest.raises(NotASubset):
        pki.issue_subtoken(tok, sub_key, (b"\xff\xff",), rng)


def test_subtoken_requires_key(rng):
    root, _, inter, _, leaf, leaf_key = build_hierarchy(rng, pki.EXEMPTION)
    tok = pki.issue_token(
        leaf, leaf_key, pki.TOKEN_EXEMPTION,
        pki.ExemptionPayload((b"\x01",), "authdev-2", None),
        pki.Identity("C2"), SigningKey.generate(rng).verify_key,
        START, END, rng)
    with pytest.raises(NoSubtokenKey):
        pki.issue_subtoken(tok, SigningKey.generate(rng), (b"\x01",), rng)


def test_subtoken_chain_validates_to_depth3(rng):
    root, inter, leaf, tok, sub_key = exemption_setup(rng)
    sub1 = pki.issue_subtoken(tok, sub_key, tok.payload.sequences[:2], rng)
    sub2 = pki.issue_subtoken(sub1, sub_key, sub1.payload.sequences[:1], rng)
    chain = pki.CertChain(path=(leaf, inter, root), token=sub2,
                          ancestors=(sub1, tok))
    pki.validate_chain(chain, root, NOW)
    # subset invariant holds along the derivation path
    assert set(sub2.payload.sequences) <= set(sub1.payload.sequences)
    assert set(sub1.payload.sequences) <= set(tok.payload.sequences)


def test_subtoken_violating_subset_rejected_at_validation(rng):
    root, inter, leaf, tok, sub_key = exemption_setup(rng)
    # hand-craft a sub-token whose sequences exceed the parent's
    import dataclasses
    wide = pki.issue_subtoken(tok, sub_key, tok.payload.sequences, rng)
    bad_payload = pki.ExemptionPayload(tok.payload.sequences + (b"\xbe\xef",),
                                       "authdev-1", sub_key.verify_key)
    bad = dataclasses.replace(wide, payload=bad_payload)
    bad = dataclasses.replace(
        bad, signature=sub_key.sign(bad.signed_portion()))
    chain = pki.CertChain(path=(leaf, inter, root), token=bad,
                          ancestors=(tok,))
    with pytest.raises(NotASubset):
        pki.validate_chain(chain, root, NOW)


def test_revoked_token_sigma(rng):
    root, _, inter, _, leaf, leaf_key = build_hierarchy(rng)
    tok, _ = synth_token(rng, leaf, leaf_key)
    chain = pki.CertChain(path=(leaf, inter, root), token=tok)
    revs = pki.RevocationList()
    revs.revoke_sigma(tok.sigma)
    with pytest.raises(Revoked) as e:
        pki.validate_chain(chain, root, NOW, revs)
    assert e.value.depth == 0


def test_revoked_intermediate_key(rng):
    root, _, inter, _, leaf, leaf_key = build_hierarchy(rng)
    tok, _ = synth_token(rng, leaf, leaf_key)
    chain = pki.CertChain(path=(leaf, inter, root), token=tok)
    revs = pki.RevocationList()
    revs.revoke_key(inter.subject_key)
    with pytest.raises(Revoked) as e:
        pki.validate_chain(chain, root, NOW, revs)
    assert e.value.depth == 2


def test_expired_window_closed_interval(rng):
    root, root_key = pki.create_root(pki.MANUFACTURER, pki.Identity("F"), rng,
                                     100, 200)
    chain = pki.CertChain(path=(root,))
    pki.validate_chain(chain, root, 100)
    pki.validate_chain(chain, root, 200)
    for bad_now in (99, 201):
        with pytest.raises(Expired):
            pki.validate_chain(chain, root, bad_now)


def test_cross_hierarchy_chain_rejected(rng):
    m_root, _, m_inter, _, m_leaf, m_leaf_key = build_hierarchy(
        rng, pki.MANUFACTURER)
    i_root, _ = pki.create_root(pki.INFRASTRUCTURE, pki.Identity("F"), rng,
                                START, END)
    tok, _ = synth_token(rng, m_leaf, m_leaf_key)
    chain = pki.CertChain(path=(m_leaf, m_inter, m_root), token=tok)
    with pytest.raises(UntrustedRoot):
        pki.validate_chain(chain, i_root, NOW)


def test_byte_flip_fuzz_all_rejected(rng):
    root, _, inter, _, leaf, leaf_key = build_hierarchy(rng)
    tok, _ = synth_token(rng, leaf, leaf_key)
    chain = pki.CertChain(path=(leaf, inter, root), token=tok)
    blob = chain.encode()
    pki.validate_chain(pki.CertChain.decode(blob), root, NOW)
    rejected = 0
    for i in range(len(blob)):
        broken = bytearray(blob)
        broken[i] ^= 0x01
        try:
            pki.validate_chain(pki.CertChain.decode(bytes(broken)), root, NOW)
        except ScreeningError:
            rejected += 1
    assert rejected == len(blob)


def test_revocation_monotone_randomized(rng):
    root, _, inter, _, leaf, leaf_key = build_hierarchy(rng)
    chains = []
    for i in range(6):
        tok, _ = synth_token(rng, leaf, leaf_key, name=f"S{i}")
        chains.append(pki.CertChain(path=(leaf, inter, root), token=tok))
    for trial in range(100):
        revs = pki.RevocationList()
        accepted = {i for i, c in enumerate(chains)
                    if pki.chain_is_valid(c, root, NOW, revs)}
        for _ in range(rng.randrange(1, 6)):
            victim = chains[rng.randrange(len(chains))]
            if rng.random() < 0.5:
                revs.revoke_sigma(victim.token.sigma)
            else:
                revs.revoke_key(victim.path[rng.randrange(3)].subject_key)
            now_accepted = {i for i, c in enumerate(chains)
                            if pki.chain_is_valid(c, root, NOW, revs)}
            assert now_accepted <= accepted
            accepted = now_accepted


def test_sigma_collision_possible_with_forced_rng(rng):
    class ForcedSigma:
        def __init__(self, inner, sigma):
            self.inner, self.sigma, self.used = inner, sigma, False

        def randbytes(self, n):
            if n == pki.SIGMA_SIZE and not self.used:
                self.used = True
                return self.sigma
            return self.inner.randbytes(n)

    _, _, _, _, leaf, leaf_key = build_hierarchy(rng)
    honest, _ = synth_token(rng, leaf, leaf_key, name="S-honest")
    forged, _ = synth_token(ForcedSigma(rng, honest.sigma), leaf, leaf_key,
                            name="S-adversary")
    assert forged.sigma == honest.sigma
    assert forged.subject_key != honest.subject_key


def test_chain_encoding_roundtrip(rng):
    root, _, inter, _, leaf, leaf_key = build_hierarchy(rng)
    tok, _ = synth_token(rng, leaf, leaf_key)
    chain = pki.CertChain(path=(leaf, inter, root), token=tok)
    again = pki.CertChain.decode(chain.encode())
    assert again.encode() == chain.encode()
    assert again.token.sigma == tok.sigma


def test_dump_text_mentions_fields(rng):
    root, _, inter, _, leaf, leaf_key = build_hierarchy(rng)
    tok, _ = synth_token(rng, leaf, leaf_key)
    text = pki.dump_text(pki.CertChain(path=(leaf, inter, root), token=tok))
    assert "rate_limit: 100" in text
    assert f"sigma: {tok.sigma.hex()}" in text


# --- kept bytes --------------------------------------------------------------
# Decode keeps the signed portion it parsed and issuance the one it signed;
# validation verifies over those bytes. They must equal a fresh re-pack of
# the fields, and ``dataclasses.replace`` must not carry them over.


def _sample_chains():
    """A token chain, a bare path and a depth-2 sub-token chain, all issued."""
    rng = random.Random(7)
    root, _, inter, _, leaf, leaf_key = build_hierarchy(rng)
    tok, _ = synth_token(rng, leaf, leaf_key)
    e_root, e_inter, e_leaf, e_tok, sub_key = exemption_setup(rng)
    sub1 = pki.issue_subtoken(e_tok, sub_key, e_tok.payload.sequences[:2],
                              rng)
    sub2 = pki.issue_subtoken(sub1, sub_key, sub1.payload.sequences[:1], rng)
    return [
        (pki.CertChain(path=(leaf, inter, root), token=tok), root),
        (pki.CertChain(path=(inter, root)), root),
        (pki.CertChain(path=(e_leaf, e_inter, e_root), token=sub2,
                       ancestors=(sub1, e_tok)), e_root),
    ]


SAMPLES = _sample_chains()


def _signed_objects(chain):
    """(depth, object) of every token and certificate in the chain."""
    tokens = [chain.token, *chain.ancestors] if chain.token else []
    return list(enumerate(tokens + list(chain.path)))


def _mutated(rng, blob):
    """``blob`` after one to three random byte flips, cuts and inserts."""
    blob = bytearray(blob)
    for _ in range(rng.randrange(1, 4)):
        kind, pos = rng.choice("fci"), rng.randrange(len(blob) + 1)
        if kind == "f" and pos < len(blob):
            blob[pos] ^= rng.randrange(1, 256)
        elif kind == "c":
            del blob[pos:pos + rng.randrange(1, 9)]
        elif kind == "i":
            blob[pos:pos] = bytes([rng.randrange(256)])
    return bytes(blob)


def test_decoded_bytes_equal_repack():
    """Every input that decodes keeps exactly what its fields re-pack to,
    and decode plus validate reject the rest with a ScreeningError only."""
    rng = random.Random(3)
    for _ in range(1000):
        chain, root = rng.choice(SAMPLES)
        blob = _mutated(rng, chain.encode())
        try:
            decoded = pki.CertChain.decode(blob)
        except DecodeError:
            continue
        for _, obj in _signed_objects(decoded):
            assert obj.signed_portion() == replace(obj).signed_portion()
        assert decoded.encode() == blob
        try:
            pki.validate_chain(decoded, root, NOW)
        except ScreeningError:
            pass


def test_encodings_are_kept(monkeypatch):
    """A decoded chain and its parts encode to the bytes they were decoded
    from, and an issued token packs its encoding once."""
    chain, _ = SAMPLES[2]
    blob = chain.encode()
    decoded = pki.CertChain.decode(blob)
    rng = random.Random(12)
    _, _, _, _, leaf, leaf_key = build_hierarchy(rng)
    issued, _ = synth_token(rng, leaf, leaf_key)
    packs = []
    real = wire.pack_fields
    monkeypatch.setattr(wire, "pack_fields",
                        lambda *fields: packs.append(fields) or real(*fields))
    assert decoded.encode() is blob
    for _, obj in _signed_objects(decoded):
        assert obj.encode() is obj.encode()
        assert blob.count(obj.encode()) == 1
    assert packs == []
    assert issued.encode() is issued.encode()
    assert len(packs) == 1


# multi-byte UTF-8 included; a fixed alphabet needs no Unicode tables
_CHARS = "aZ0 .-_@\x00\xe9\xdf\u20ac\u4e2d\U0001f600"


def _text(rng, min_size, max_size):
    return "".join(rng.choice(_CHARS)
                   for _ in range(rng.randint(min_size, max_size)))


def test_issued_bytes_survive_decode():
    """Issued objects keep what they signed; decoding gives it back."""
    draw = random.Random(5)
    for _ in range(40):
        name, email = _text(draw, 1, 12), _text(draw, 0, 12)
        mu = draw.choice((0, 2 ** 64 - 1, draw.randrange(2 ** 64)))
        seqs = [draw.randbytes(draw.randrange(7))
                for _ in range(draw.randrange(5))]
        rng = random.Random(11)
        root, _, inter, _, leaf, leaf_key = build_hierarchy(rng)
        subject_key = SigningKey.generate(rng).verify_key
        tok = pki.issue_token(leaf, leaf_key, pki.TOKEN_SYNTHESIZER,
                              pki.SynthesizerPayload(name, mu),
                              pki.Identity(name, email), subject_key,
                              START, END, rng)
        _, _, e_leaf, e_tok, sub_key = exemption_setup(rng, tuple(seqs))
        sub = pki.issue_subtoken(e_tok, sub_key, tuple(seqs[:2]), rng)
        for obj in (root, inter, leaf, tok, e_leaf, e_tok, sub):
            assert obj.signed_portion() == replace(obj).signed_portion()
            again = type(obj).decode(obj.encode())
            assert again == obj
            assert again.signed_portion() == obj.signed_portion()
        chain = pki.CertChain(path=(leaf, inter, root), token=tok)
        assert chain.encode() == replace(chain).encode()
        pki.validate_chain(pki.CertChain.decode(chain.encode()), root, NOW)


@pytest.mark.parametrize("decoded", [False, True], ids=["issued", "decoded"])
@pytest.mark.parametrize("sample", range(len(SAMPLES)))
def test_replaced_field_fails_signature_at_its_depth(sample, decoded):
    """A field changed with ``replace`` is signed over nothing it kept."""
    chain, root = SAMPLES[sample]
    if decoded:
        chain = pki.CertChain.decode(chain.encode())
    objects = _signed_objects(chain)
    n_tokens = len(objects) - len(chain.path)
    for depth, obj in objects:
        moved = replace(obj, valid_end=obj.valid_end + 1)
        assert moved == replace(moved) != obj
        if depth < n_tokens:
            tokens = [chain.token, *chain.ancestors]
            tokens[depth] = moved
            bad = replace(chain, token=tokens[0], ancestors=tuple(tokens[1:]))
        else:
            path = list(chain.path)
            path[depth - n_tokens] = moved
            bad = replace(chain, path=tuple(path))
        # the pinned root is the moved one, so the root test passes
        anchor = moved if obj is chain.root else root
        with pytest.raises(BadSignature) as e:
            pki.validate_chain(bad, anchor, NOW)
        assert e.value.depth == depth
        assert bad.encode() != chain.encode()


def test_moved_root_is_not_the_pinned_root():
    chain, root = SAMPLES[0]
    moved = replace(root, valid_end=root.valid_end + 1)
    with pytest.raises(UntrustedRoot):
        pki.validate_chain(replace(chain, path=(*chain.path[:-1], moved)),
                           root, NOW)
