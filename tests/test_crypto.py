"""Group backends, hash-to-group, signatures, and the record AEAD."""

import random

import pytest

from dnascreen.crypto import (
    FIN_SEQ,
    GroupBackend,
    TEST_BACKEND,
    aead_open,
    aead_seal,
    exp,
    get_backend,
    hash_to_group,
    prod_backend,
    SigningKey,
)
from dnascreen.errors import AuthenticationFailure, DecodeError

B = TEST_BACKEND


def test_test_backend_parameters():
    assert (B.p, B.q, B.g) == (23, 11, 2)
    assert pow(B.g, B.q, B.p) == 1
    assert len(B.all_elements()) == 11
    assert len({e.value for e in B.all_elements()}) == 11


def test_exp_identity_exponent():
    assert exp(B.generator, B.scalar(1)).value == 2


def test_exp_known_value():
    # modular-exponentiation oracle: 2^5 mod 23
    assert exp(B.generator, B.scalar(5)).value == pow(2, 5, 23) == 9


def test_exp_composition_law_exhaustive():
    # exp(exp(x,a),b) == exp(x, a*b mod q), brute force over the whole group
    for x in B.all_elements():
        for a in range(B.q):
            for b in range(B.q):
                lhs = exp(exp(x, B.scalar(a)), B.scalar(b))
                rhs = exp(x, B.scalar((a * b) % B.q))
                assert lhs == rhs


def test_exp_composition_spec_example():
    lhs = exp(exp(B.generator, B.scalar(3)), B.scalar(4))
    assert lhs == exp(B.generator, B.scalar(12 % 11))
    assert lhs.value == 2


def test_hash_to_group_deterministic():
    assert hash_to_group(b"abc", B) == hash_to_group(b"abc", B)


def test_hash_to_group_never_identity():
    rng = random.Random(7)
    for _ in range(500):
        msg = rng.randbytes(rng.randrange(1, 20))
        assert not hash_to_group(msg, B).is_identity()


def test_hash_to_group_identity_remap_rule():
    # find a message whose hash is 0 mod 11; the remap must yield g
    import hashlib
    for i in range(10000):
        msg = b"probe-%d" % i
        if int.from_bytes(hashlib.sha256(msg).digest(), "big") % B.q == 0:
            assert hash_to_group(msg, B) == B.generator
            return
    pytest.fail("no zero-exponent message found in range")


def test_hash_to_group_collision_scan():
    # 1000 random distinct inputs never collide as (input -> element) pairs
    # in the sense of determinism; element collisions themselves are expected
    # in an 11-element group, so check stability instead of injectivity.
    rng = random.Random(11)
    seen = {}
    for _ in range(1000):
        msg = rng.randbytes(16)
        v = hash_to_group(msg, B).value
        if msg in seen:
            assert seen[msg] == v
        seen[msg] = v
    # distinct messages spread over more than one element
    assert len(set(seen.values())) > 1


def test_element_membership_validation():
    for v in range(24):
        if 1 <= v < 23 and pow(v, 11, 23) == 1:
            assert B.element(v).value == v
        else:
            with pytest.raises(DecodeError):
                B.element(v)


def test_prod_membership_agrees_with_eulers_criterion():
    P = prod_backend()
    rng = random.Random(12)
    squares = [pow(rng.randrange(2, P.p - 1), 2, P.p) for _ in range(18)]
    non_squares = [P.p - v for v in squares]  # -1 is a non-residue mod P.p
    values = squares + non_squares + [1, 2, P.p - 1, P.g * P.g % P.p]
    euler = [pow(v, P.q, P.p) == 1 for v in values]
    assert len(values) == 40 and sum(euler) == len(squares) + 3
    for v, member in zip(values, euler):
        if member:
            assert P.element(v).value == v
        else:
            with pytest.raises(DecodeError):
                P.element(v)


def test_prod_decode_rejects_out_of_group_values():
    P = prod_backend()
    for v in (P.p - 1, 0, P.p):
        with pytest.raises(DecodeError):
            P.decode_element(v.to_bytes(P.element_size, "big"))


def test_backend_requires_safe_prime():
    with pytest.raises(ValueError):
        GroupBackend("x", p=29, q=11, g=2, element_size=4, scalar_size=4)


@pytest.mark.parametrize("name", ["test", "prod"])
def test_signed_exponent_matches_plain_power(name):
    G = get_backend(name)
    rng = random.Random(13)
    x = hash_to_group(b"signed exponents", G)
    assert x.exp(G.scalar(G.q - 1)).mul(x).is_identity()
    low = [G.scalar(rng.randrange(0, G.q // 2 + 1)) for _ in range(3)]
    high = [G.scalar(rng.randrange(G.q // 2 + 1, G.q)) for _ in range(3)]
    for s in low + high + [G.scalar(G.q - 2), G.scalar(1), G.scalar(0)]:
        assert x.exp(s).value == pow(x.value, s.value, G.p)


def test_prod_exp_matches_plain_power_on_both_routes():
    P = prod_backend()
    rng = random.Random(14)
    short = P.short_exp_bits
    # seeded (base, long exponent) pairs, which run on OpenSSL
    for _ in range(4):
        x = hash_to_group(rng.randbytes(16), P)
        s = P.random_scalar(rng)
        assert x.exp(s).value == pow(x.value, s.value, P.p)
    # short exponents on either side of the pow/OpenSSL split
    x = hash_to_group(b"short and long", P)
    for k in (0, 1, 2, 2 ** short - 1, 2 ** short, 2 ** (short + 8) + 1):
        assert x.exp(P.scalar(k)).value == pow(x.value, k, P.p)
    # q - m on either side of the signed/OpenSSL split: x^(q-m) * x^m = 1
    for m in (1, 2, 2 ** short - 1, 2 ** short, 2 ** (short + 8) + 1):
        y = x.exp(P.scalar(P.q - m))
        assert y.value * pow(x.value, m, P.p) % P.p == 1


def _spy_openssl(monkeypatch) -> list:
    calls = []
    real = GroupBackend._openssl_pow

    def spy(backend, x, k):
        calls.append(k)
        return real(backend, x, k)

    monkeypatch.setattr(GroupBackend, "_openssl_pow", spy)
    return calls


def test_exp_routes_only_long_prod_exponents_to_openssl(monkeypatch):
    calls = _spy_openssl(monkeypatch)
    # OpenSSL refuses the 5-bit test modulus: every power stays on pow
    for x in B.all_elements():
        for k in range(B.q):
            assert x.exp(B.scalar(k)).value == pow(x.value, k, B.p)
    assert calls == []
    P = prod_backend()
    short = 16
    x = hash_to_group(b"routes", P)
    for k in (0, 1, 2, 2 ** short - 1, P.q - 1, P.q - 2 ** short + 1):
        x.exp(P.scalar(k))
    assert calls == []
    x.exp(P.scalar(2 ** short))
    x.exp(P.scalar(P.q - 2 ** short))
    assert calls == [2 ** short, P.q - 2 ** short]


def test_prod_exp_identity_cases_never_reach_openssl(monkeypatch):
    calls = _spy_openssl(monkeypatch)
    P = prod_backend()
    rng = random.Random(15)
    x = hash_to_group(b"identity cases", P)
    exponents = [P.scalar(k) for k in (0, 1, 2, P.q - 1, P.q)]
    exponents.append(P.random_scalar(rng))
    try:  # OpenSSL rejects a secret of 1 with a panic, not an Exception
        results = [P.identity.exp(s) for s in exponents]
        results.append(x.exp(P.scalar(0)))
        results.append(x.exp(P.scalar(P.q)))
    except BaseException as err:
        pytest.fail(f"exp raised {type(err).__name__}: {err}")
    assert all(y == P.identity for y in results)
    assert calls == []


def test_test_backend_dh_secret_is_the_nonzero_scalar_draw():
    # q < 2^275 on the test group, so the handshake's draws are unchanged
    r1, r2 = random.Random(16), random.Random(16)
    drawn = [B.random_dh_secret(r1) for _ in range(2000)]
    assert drawn == [B.random_nonzero_scalar(r2) for _ in range(2000)]
    assert r1.getstate() == r2.getstate()
    assert {s.value for s in drawn} == set(range(1, B.q))


def test_prod_dh_secrets_are_short_and_nonzero():
    P = prod_backend()
    rng = random.Random(17)
    drawn = [P.random_dh_secret(rng).value for _ in range(200)]
    assert all(1 <= e < 2 ** 275 for e in drawn)
    assert max(drawn).bit_length() == 275


def test_sign_verify_roundtrip_tamper_wrongkey():
    rng = random.Random(1)
    sk = SigningKey.generate(rng)
    sk2 = SigningKey.generate(rng)
    m = b"screen this order"
    sig = sk.sign(m)
    assert sk.verify_key.verify(m, sig)
    assert not sk.verify_key.verify(m + b"\x00", sig)
    assert not sk2.verify_key.verify(m, sig)


def test_signature_negative_matrix():
    # no vector verifies under any key other than its signer's (5 keys x 5 msgs)
    rng = random.Random(2)
    keys = [SigningKey.generate(rng) for _ in range(5)]
    msgs = [b"msg-%d" % i for i in range(5)]
    for i, sk in enumerate(keys):
        for m in msgs:
            sig = sk.sign(m)
            for j, other in enumerate(keys):
                assert other.verify_key.verify(m, sig) == (i == j)


def test_aead_roundtrip():
    key = bytes(range(32))
    assert aead_open(key, 0, aead_seal(key, 0, b"payload")) == b"payload"


def test_aead_seq_mismatch():
    key = bytes(range(32))
    ct = aead_seal(key, 0, b"payload")
    with pytest.raises(AuthenticationFailure):
        aead_open(key, 1, ct)


def test_aead_wrong_key_and_mutation():
    key = bytes(range(32))
    other = bytes(31 for _ in range(32))
    ct = aead_seal(key, 3, b"payload")
    with pytest.raises(AuthenticationFailure):
        aead_open(other, 3, ct)
    for i in range(len(ct)):
        broken = bytearray(ct)
        broken[i] ^= 0x01
        with pytest.raises(AuthenticationFailure):
            aead_open(key, 3, bytes(broken))


def test_aead_same_key_same_seq_swap_accepted():
    # the latent weakness the simulator must be able to exhibit: records from
    # two sessions under the same key at equal positions are interchangeable
    key = bytes(range(32))
    ct_a = aead_seal(key, 0, b"session A answer")
    ct_b = aead_seal(key, 0, b"session B answer")
    assert aead_open(key, 0, ct_b) == b"session B answer"
    assert aead_open(key, 0, ct_a) == b"session A answer"


def test_fin_seq_reserved():
    assert FIN_SEQ == 2 ** 64 - 1


def test_prod_backend_group_law():
    P = prod_backend()
    assert pow(P.g, P.q, P.p) == 1
    rng = random.Random(3)
    x = hash_to_group(b"order", P)
    a, b = P.random_scalar(rng), P.random_scalar(rng)
    assert exp(exp(x, a), b) == exp(x, a.mul(b))
    assert not hash_to_group(b"anything", P).is_identity()
    assert get_backend("prod") is P
