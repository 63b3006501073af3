"""Group backends, hash-to-group, signatures, and the record AEAD."""

import hashlib
import random
import types

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from dnascreen import crypto, wire
from dnascreen.channel import ServerHandshake, handshake_client, issue_tls_identity
from dnascreen.crypto import (
    FIN_SEQ,
    ModularGroup,
    TEST_BACKEND,
    aead_open,
    aead_seal,
    exp,
    get_backend,
    hash_to_group,
    SigningKey,
    VerifyKey,
)
from dnascreen.doprf import KeyShare, blind, eval_share, random_blinding, unblind
from dnascreen.errors import AuthenticationFailure, DecodeError

B = TEST_BACKEND
P = get_backend("prod")


def double_and_add(x, k: int):
    """x^k by square-and-multiply over ``mul`` alone: a reference for ``exp``
    that shares no code with it on either backend."""
    acc = x.backend.identity
    for bit in bin(k)[2:]:
        acc = acc.mul(acc)
        if bit == "1":
            acc = acc.mul(x)
    return acc


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


def test_prod_decode_rejects_out_of_group_values():
    # RFC 9496 decode: s >= p and odd s are non-canonical, and an s whose
    # square-root step fails encodes no element
    p = crypto._P
    g = int.from_bytes(P.generator.encode(), "little")
    # 2p - g is even and names the field element -g, whose point is g's
    for s in (2 * p - g, p, p + 1, 2 ** 256 - 2, 1, p - g):
        with pytest.raises(DecodeError):
            P.decode_element((s % 2 ** 256).to_bytes(32, "little"))
    rng = random.Random(12)
    rejected = 0
    for _ in range(60):
        s = rng.randrange(p) & ~1
        try:
            P.element(s)
        except DecodeError:
            rejected += 1
    assert 0 < rejected < 60
    with pytest.raises(DecodeError):
        P.decode_element(bytes(31))


def test_backend_requires_safe_prime():
    with pytest.raises(ValueError):
        ModularGroup("x", p=29, q=11, g=2, element_size=4, scalar_size=4)


@pytest.mark.parametrize("name", ["test", "prod"])
def test_signed_exponent_matches_plain_power(name):
    G = get_backend(name)
    rng = random.Random(13)
    x = hash_to_group(b"signed exponents", G)
    assert x.exp(G.scalar(G.q - 1)).mul(x).is_identity()
    low = [G.scalar(rng.randrange(0, G.q // 2 + 1)) for _ in range(3)]
    high = [G.scalar(rng.randrange(G.q // 2 + 1, G.q)) for _ in range(3)]
    for s in low + high + [G.scalar(G.q - 2), G.scalar(1), G.scalar(0)]:
        assert x.exp(s) == double_and_add(x, s.value)


def test_prod_exp_matches_plain_power_on_both_routes():
    # a short q - k takes the inverse of x^(q - k), here a point negation;
    # a short k runs the signed radix-16 multiplication, and every other k
    # the X25519 ladder
    rng = random.Random(14)
    short = P.short_exp_bits
    assert short == 16
    for _ in range(3):
        x = hash_to_group(rng.randbytes(16), P)
        s = P.random_scalar(rng)
        assert x.exp(s) == double_and_add(x, s.value)
    x = hash_to_group(b"short and long", P)
    for k in (0, 1, 2, 8, 9, 2 ** short - 1, 2 ** short, 2 ** (short + 8) + 1):
        assert x.exp(P.scalar(k)) == double_and_add(x, k)
    for m in (1, 2, 2 ** short - 1, 2 ** short, 2 ** (short + 8) + 1):
        y = x.exp(P.scalar(P.q - m))
        assert y == double_and_add(x, P.q - m)
        assert y.mul(double_and_add(x, m)).is_identity()


def test_prod_exp_identity_cases():
    rng = random.Random(15)
    x = hash_to_group(b"identity cases", P)
    exponents = [P.scalar(k) for k in (0, 1, 2, P.q - 1)]
    exponents.append(P.random_scalar(rng))
    results = [P.identity.exp(s) for s in exponents]
    results.append(x.exp(P.scalar(0)))
    results.append(x.power(P.q))
    assert all(y.is_identity() and y == P.identity for y in results)


# E[4] beside the identity: (0, -1) and (+-i, 0)
TORSION = [(0, crypto._P - 1, 1, 0), (crypto._SQRT_M1, 0, 1, 0),
           (crypto._P - crypto._SQRT_M1, 0, 1, 0)]


def _affine(point: tuple) -> tuple:
    X, Y, Z, _ = point
    z_inv = pow(Z, -1, crypto._P)
    return X * z_inv % crypto._P, Y * z_inv % crypto._P


def _clamp(b: bytes) -> int:
    k = int.from_bytes(b, "little")
    return (k & (2 ** 254 - 8)) | 2 ** 254


@pytest.mark.parametrize("seed", range(20))
def test_edwards25519_core_matches_openssl(seed):
    # Ed25519: the public key is the compressed clamp(SHA-512(seed)[:32]) * B.
    # X25519: its public u is (1 + y) / (1 - y) of clamp(seed) * B.
    p = crypto._P
    secret = random.Random(seed).randbytes(32)
    base = P.generator.value
    a = _clamp(hashlib.sha512(secret).digest()[:32])
    x, y = _affine(crypto._ed_mul(base, a))
    assert (y | (x & 1) << 255).to_bytes(32, "little") == (
        Ed25519PrivateKey.from_private_bytes(secret).public_key()
        .public_bytes_raw())
    _, y = _affine(crypto._ed_mul(base, _clamp(secret)))
    u = (1 + y) * pow(1 - y, -1, p) % p
    assert u.to_bytes(32, "little") == (
        X25519PrivateKey.from_private_bytes(secret).public_key()
        .public_bytes_raw())


def test_ristretto_constants_satisfy_their_definitions():
    p, d = crypto._P, crypto._D
    assert (-121665 - 121666 * d) % p == 0
    assert crypto._SQRT_M1 ** 2 % p == p - 1
    assert crypto._SQRT_AD_MINUS_ONE ** 2 % p == (-d - 1) % p
    assert crypto._INVSQRT_A_MINUS_D ** 2 * (-1 - d) % p == 1
    assert crypto._ONE_MINUS_D_SQ == (1 - d * d) % p
    assert crypto._D_MINUS_ONE_SQ == (d - 1) ** 2 % p
    assert P.q == 2 ** 252 + 27742317777372353535851937790883648493


def test_ristretto_encodings_are_canonical():
    rng = random.Random(16)
    p = crypto._P
    points = [hash_to_group(rng.randbytes(8), P) for _ in range(6)]
    points += [P.generator, P.generator.exp(P.random_scalar(rng))]
    accepted = []
    for _ in range(40):
        b = (rng.randrange(p) & ~1).to_bytes(32, "little")
        try:
            accepted.append(P.decode_element(b))
        except DecodeError:
            continue
        assert accepted[-1].encode() == b
    assert len(accepted) >= 5
    for x in points + accepted:
        e = x.encode()
        assert P.decode_element(e) == x
        assert P.decode_element(e).encode() == e
        # l * x lands in the 4-torsion, the identity's class
        assert crypto.GroupElement(P, crypto._ed_mul(x.value, P.q)).is_identity()
        for t in TORSION:
            moved = crypto.GroupElement(P, crypto._ed_add(x.value, t))
            assert moved.encode() == e and moved == x
    assert P.identity.encode() == bytes(32)
    assert P.decode_element(bytes(32)).is_identity()
    for t in TORSION:
        assert crypto.GroupElement(P, t).is_identity()
        assert crypto.GroupElement(P, t).encode() == bytes(32)


# RFC 9496 Appendix A.1: the encodings of 0B, B, 2B, ..., 15B
RFC9496_MULTIPLES = [
    "00" * 32,
    "e2f2ae0a6abc4e71a884a961c500515f58e30b6aa582dd8db6a65945e08d2d76",
    "6a493210f7499cd17fecb510ae0cea23a110e8d5b901f8acadd3095c73a3b919",
    "94741f5d5d52755ece4f23f044ee27d5d1ea1e2bd196b462166b16152a9d0259",
    "da80862773358b466ffadfe0b3293ab3d9fd53c5ea6c955358f568322daf6a57",
    "e882b131016b52c1d3337080187cf768423efccbb517bb495ab812c4160ff44e",
    "f64746d3c92b13050ed8d80236a7f0007c3b3f962f5ba793d19a601ebb1df403",
    "44f53520926ec81fbd5a387845beb7df85a96a24ece18738bdcfa6a7822a176d",
    "903293d8f2287ebe10e2374dc1a53e0bc887e592699f02d077d5263cdd55601c",
    "02622ace8f7303a31cafc63f8fc48fdc16e1c8c8d234b2f0d6685282a9076031",
    "20706fd788b2720a1ed2a5dad4952b01f413bcf0e7564de8cdc816689e2db95f",
    "bce83f8ba5dd2fa572864c24ba1810f9522bc6004afe95877ac73241cafdab42",
    "e4549ee16b9aa03099ca208c67adafcafa4c3f3e4e5303de6026e3ca8ff84460",
    "aa52e000df2e16f55fb1032fc33bc42742dad6bd5a8fc0be0167436c5948501f",
    "46376b80f409b29dc2b5f6f0c52591990896e5716f41477cd30085ab7f10301e",
    "e0c418f7c8d9c4cdd7395b93ea124f3ad99021bb681dfc3302a9d99a2e53e64e",
]


def test_prod_generator_multiples_match_rfc9496():
    g = P.generator
    acc = P.identity
    for i, expected in enumerate(RFC9496_MULTIPLES):
        assert g.exp(P.scalar(i)).encode().hex() == expected
        assert acc.encode().hex() == expected
        # l + i: the same multiple through the X25519 ladder and, for
        # i > 0, the doubled-point encode
        ladder = P._pow(g.value, P.q + i)
        assert (type(ladder) is crypto._Doubled) == (i > 0)
        assert crypto.GroupElement(P, ladder).encode().hex() == expected
        acc = acc.mul(g)


# short, at the edges of the X25519 route's scalar ranges, and 2^256 mod l,
# for which neither of +-k/16 gives a clamped 8j
EDGE_SCALARS = (1, 2, 8, 16, 2 ** 16, P.q - 2 ** 16, P.q - 16, P.q - 8,
                P.q - 1, 2 ** 255 % P.q, 2 ** 256 % P.q)


def _encode(point: tuple) -> bytes:
    return crypto.GroupElement(P, point).encode()


def test_prod_pow_matches_ed_mul():
    # hashed points, generator multiples, and each of them moved by every
    # 4-torsion point, against the signed radix-16 reference
    rng = random.Random(17)
    points = [hash_to_group(rng.randbytes(8), P).value for _ in range(3)]
    points += [P.generator.value, P.generator.exp(P.random_scalar(rng)).value]
    points += [crypto._ed_add(v, t) for v in points for t in TORSION]
    for v in points:
        ks = [rng.randrange(P.q) for _ in range(4)] + list(EDGE_SCALARS)
        for k in ks:
            assert _encode(P._pow(v, k)) == _encode(crypto._ed_mul(v, k))
    for v in [P.identity.value] + TORSION:
        for k in [rng.randrange(P.q) for _ in range(4)] + list(EDGE_SCALARS):
            assert _encode(P._pow(v, k)) == bytes(32)


def test_prod_long_scalars_take_the_x25519_ladder(monkeypatch):
    fallbacks, exchanges = [], []
    ed_mul = crypto._ed_mul
    monkeypatch.setattr(crypto, "_ed_mul",
                        lambda v, k: fallbacks.append(k) or ed_mul(v, k))

    class SpyKey:
        def __init__(self, raw):
            self.key = X25519PrivateKey.from_private_bytes(raw)

        def public_key(self):
            return self.key.public_key()

        def exchange(self, peer):
            exchanges.append(peer)
            return self.key.exchange(peer)

    monkeypatch.setattr(crypto, "X25519PrivateKey",
                        types.SimpleNamespace(from_private_bytes=SpyKey))
    rng = random.Random(18)
    x = hash_to_group(b"routes", P).value
    for v in (x, P.generator.value):
        for _ in range(24):
            P._pow(v, rng.randrange(2 ** 17, P.q))
    assert fallbacks == []
    # a hashed point's two ladders are exchanges; the generator's read
    # public keys
    assert len(exchanges) == 24 * 2
    exchanges.clear()
    P.generator.exp(P.random_scalar(rng))
    assert exchanges == []
    P._pow(x, rng.randrange(2 ** 17, P.q))
    assert len(exchanges) == 2
    # the short route; k/16 = 2^252, just past the clamped range, with -k/16
    # below it; k/16 = l - 1, with u(H + D) at the identity and -k/16 = 1;
    # and the identity's class
    short = 2 ** 16 - 1
    degenerate = [16 * 2 ** 252 % P.q, 16 * (P.q - 1) % P.q]
    assert degenerate == [2 ** 256 % P.q, P.q - 16]
    for k in [short, *degenerate]:
        P._pow(x, k)
    k = rng.randrange(2 ** 17, P.q)
    P._pow(P.identity.value, k)
    assert fallbacks == [short, *degenerate, k]


def test_prod_scalar_derives_its_x25519_keys_once(monkeypatch):
    derived = []
    real = X25519PrivateKey.from_private_bytes
    monkeypatch.setattr(crypto, "X25519PrivateKey", types.SimpleNamespace(
        from_private_bytes=lambda raw: derived.append(raw) or real(raw)))
    rng = random.Random(20)
    xs = [hash_to_group(rng.randbytes(8), P) for _ in range(5)]

    def products(k: int) -> list:
        return [_encode(crypto._ed_mul(x.value, k)) for x in xs]

    # a keyserver evaluates every element under one share
    share = KeyShare(1, P.random_scalar(rng))
    assert [y.encode() for y in (eval_share(share, x) for x in xs)] == (
        products(share.value.value))
    assert len(derived) == 2
    # a bare int derives the keys on every call
    derived.clear()
    assert [x.power(share.value.value).encode() for x in xs] == (
        products(share.value.value))
    assert len(derived) == 2 * len(xs)
    # an order's blinds share beta, and its unblinds beta's one inverse
    beta = random_blinding(P, rng)
    derived.clear()
    blinded = [blind(x, beta) for x in xs]
    assert [y.encode() for y in blinded] == products(beta.value)
    assert len(derived) == 2
    assert [unblind(y, beta) for y in blinded] == xs
    assert len(derived) == 4
    # each handshake side multiplies g and the peer's share by one exponent
    ca = SigningKey.generate(rng)
    ident, static = issue_tls_identity(ca, "W", rng)
    server = ServerHandshake(ident, static, P, rng)
    server_side = []

    def transport(payload):
        before = len(derived)
        if wire.unpack_fields(payload.data)[0] == b"client-hello":
            reply = server.receive_client_hello(payload.data)
        else:
            reply = server.receive_client_kex(payload.data)
        server_side.append(len(derived) - before)
        return reply.data

    derived.clear()
    client = handshake_client(transport, "W", ca.verify_key, P, rng)
    assert client.client_write == server.session.client_write
    assert sum(server_side) == 2 and len(derived) == 4
    # the server's share again, from the keys its exponent kept
    g, e_s = P.generator, server.e_s
    assert g.exp(e_s).encode() == _encode(crypto._ed_mul(g.value, e_s.value))
    assert len(derived) == 4


def test_doubled_encode_matches_rfc_encode():
    # H from hashing, generator multiples and ladder outputs, each moved by
    # every 4-torsion point: the doubling supplies the encode's root
    rng = random.Random(19)
    points = [hash_to_group(rng.randbytes(8), P).value for _ in range(8)]
    points += [crypto._ed_mul(P.generator.value, rng.randrange(1, P.q))
               for _ in range(8)]
    ladder = [P._pow(v, rng.randrange(2 ** 17, P.q)) for v in points]
    assert all(type(v) is crypto._Doubled for v in ladder)
    points += ladder + [v.half for v in ladder]
    for v in points:
        for t in [(0, 1, 1, 0)] + TORSION:
            h = crypto._ed_add(v, t)
            assert crypto._ristretto_encode_double(h) == (
                crypto._ristretto_encode(crypto._ed_double(h)))


def test_prod_hash_to_group_calls_neither_exp_nor_element(monkeypatch):
    def forbidden(*args):
        raise AssertionError("hash_to_group reached a counted operation")

    monkeypatch.setattr(crypto.GroupElement, "exp", forbidden)
    monkeypatch.setattr(crypto.GroupBackend, "element", forbidden)
    a, b = hash_to_group(b"abc", P), hash_to_group(b"abd", P)
    assert a == hash_to_group(b"abc", P) and a != b
    assert len({hash_to_group(bytes([i]), P).encode() for i in range(20)}) == 20


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


def test_verify_key_parses_once_and_fails_closed(monkeypatch):
    parsed = []
    real = crypto.Ed25519PublicKey

    def parse(raw):
        parsed.append(raw)
        return real.from_public_bytes(raw)

    monkeypatch.setattr(crypto, "Ed25519PublicKey",
                        type("Spy", (), {"from_public_bytes": staticmethod(parse)}))
    sk = SigningKey.generate(random.Random(4))
    vk = sk.verify_key
    assert parsed == []
    assert vk.verify(b"m", sk.sign(b"m")) and not vk.verify(b"n", sk.sign(b"m"))
    assert parsed == [vk.encode()]
    # equality and hashing stay on the raw bytes, parsed or not
    fresh = VerifyKey(vk.encode())
    assert fresh == vk and hash(fresh) == hash(vk)
    # y = 2 is on no edwards25519 point: verify says False, every time
    off_curve = VerifyKey((2).to_bytes(32, "little"))
    assert not off_curve.verify(b"m", sk.sign(b"m"))
    assert not off_curve.verify(b"m", bytes(64))


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
    # B has prime order l on the curve itself, not only up to 4-torsion
    assert _affine(crypto._ed_mul(P.generator.value, P.q)) == (0, 1)
    assert not P.generator.is_identity()
    rng = random.Random(3)
    x = hash_to_group(b"order", P)
    a, b = P.random_scalar(rng), P.random_scalar(rng)
    assert exp(exp(x, a), b) == exp(x, a.mul(b))
    assert not hash_to_group(b"anything", P).is_identity()
    assert get_backend("prod") is P
