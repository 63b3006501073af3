"""Prime-order group backends, hash-to-group, signatures, and channel AEAD.

Two interchangeable group backends sit behind one interface:

- ``test``: the order-11 subgroup of the integers mod 23 generated by 2.
  Small enough that every algebraic property can be checked by brute force.
- ``prod``: the prime-order subgroup of quadratic residues mod the RFC 3526
  3072-bit safe prime (generator 2). Roughly 128-bit classical security.

All protocol logic above this module is backend-generic: it sees only
``GroupElement`` and ``Scalar``. Signatures are Ed25519 over canonical
encodings, and the record AEAD is ChaCha20-Poly1305 with the 64-bit
per-direction sequence number baked into the nonce.

Both moduli are safe primes, p = 2q + 1 with q prime, and the constructor
refuses a p other than 2q + 1. The order-q subgroup is then exactly the
quadratic residues mod p, so by Euler's criterion v^q = 1 (mod p) holds iff
the Legendre symbol (v/p) is 1. ``GroupBackend.element`` tests membership
with that symbol, computed by a binary Jacobi-symbol loop with the cost of a
gcd, instead of a full 3072-bit power on ``prod``.

Every ``GroupElement`` has an order dividing q, so ``exp`` may raise to
e - q instead of e. It does so when q - e is short (at most 16 bits, or
half the bits of q on a smaller group), which turns an exponent such as
q - 1 (the Lagrange coefficient -1) into one modular inverse.

On ``prod`` every other exponentiation with a long exponent runs on
OpenSSL's constant-time Montgomery modexp, reached through the finite-field
DH API of ``cryptography``: x^e mod p is the shared secret of private key e
with peer public key x. That is about 10 ms against about 110 ms for
Python's ``pow`` on a 3072-bit exponent. The backend holds DH parameters
only when OpenSSL accepts its modulus; OpenSSL refuses p below 512 bits, so
the ``test`` backend stays on ``pow``. A short exponent such as 2 also stays
on ``pow``, which costs no more than the OpenSSL call up to 16 bits.
Exponent 0 and the identity base never reach OpenSSL: it rejects a shared
secret of 1 (or p - 1) with a Rust panic, which is not an ``Exception``.
Within the order-q subgroup no other input gives 1, and p - 1 is not in the
subgroup.

The channel handshake's ephemeral DH secrets come from ``random_dh_secret``:
uniform in [1, min(q, 2^275)), the short exponents RFC 7919 and NIST
SP 800-56A allow for ephemeral DH over a safe-prime group. On ``prod`` such
a power still runs on OpenSSL but costs about 1 ms instead of about 10 ms,
so a basic query's twelve handshake powers take about 13 ms instead of
about 115 ms. Key shares and the blinding scalar beta stay uniform mod q:
Shamir sharing and blinding hide a value only when the scalar is uniform
over the whole group. On ``test`` q is below 2^275, so the draw is
``random_nonzero_scalar``'s, value and rng state alike.
"""

import hashlib

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric import dh
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from .errors import AuthenticationFailure, DecodeError

# RFC 3526 group 15 (3072-bit MODP). p is a safe prime: q = (p-1)/2 is prime,
# and 2 generates the order-q subgroup of quadratic residues (p = 7 mod 8).
_RFC3526_3072_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AAAC42DAD33170D04507A33"
    "A85521ABDF1CBA64ECFB850458DBEF0A8AEA71575D060C7DB3970F85A6E1E4C7"
    "ABF5AE8CDB0933D71E8C94E04A25619DCEE3D2261AD2EE6BF12FFA06D98A0864"
    "D87602733EC86A64521F2B18177B200CBBE117577A615D6C770988C0BAD946E2"
    "08E24FA074E5AB3143DB5BFCE0FD108E4B82D120A93AD2CAFFFFFFFFFFFFFFFF",
    16,
)

# Exponents of at most this many bits, and q minus such exponents, stay on
# pow. On prod, pow of such an exponent costs about one OpenSSL call
# (0.3-0.6 ms), and a short negative power (one inverse, ~1.5 ms) is far
# cheaper than OpenSSL's ~10 ms on the full-length q - m.
_SHORT_EXP_BITS = 16

# Length bound of an ephemeral channel DH secret: RFC 7919 Appendix A.2 asks
# for at least 275 bits on a 3072-bit group.
_DH_SECRET_BITS = 275


def _legendre(a: int, p: int) -> int:
    """The Jacobi symbol (a/p) for odd p > 0: the Legendre symbol if p is prime.

    Binary algorithm: strip factors of two (each flips the sign when
    p = 3, 5 mod 8), then swap by quadratic reciprocity (flipping the sign
    when both are 3 mod 4) and reduce.
    """
    a %= p
    sign = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and p & 7 in (3, 5):
            sign = -sign
        if a & 3 == 3 and p & 3 == 3:
            sign = -sign
        a, p = p % a, a
    return sign if p == 1 else 0


class GroupBackend:
    """A cyclic group of prime order q inside the integers mod p."""

    def __init__(self, name: str, p: int, q: int, g: int,
                 element_size: int, scalar_size: int):
        if p != 2 * q + 1:
            raise ValueError("p must be the safe prime 2q + 1")
        self.name = name
        self.p = p
        self.q = q
        self.g = g
        self.element_size = element_size
        self.scalar_size = scalar_size
        self.generator = GroupElement(self, g)
        self.identity = GroupElement(self, 1)
        self.short_exp_bits = min(q.bit_length() // 2, _SHORT_EXP_BITS)
        try:
            params = dh.DHParameterNumbers(p, g)
            params.parameters()
        except ValueError:  # OpenSSL refuses moduli below 512 bits
            self._dh_generator = None
        else:
            self._dh_generator = dh.DHPublicNumbers(g, params)

    def _openssl_pow(self, x: int, k: int) -> int:
        """x^k mod p as OpenSSL's DH shared secret of private k and peer x.

        The private key's public half is never used, so g stands in for it.
        x^k must not be 1 or p - 1, which OpenSSL rejects with a panic.
        """
        anchor = self._dh_generator
        peer = dh.DHPublicNumbers(x, anchor.parameter_numbers).public_key()
        key = dh.DHPrivateNumbers(k, anchor).private_key()
        return int.from_bytes(key.exchange(peer), "big")

    def scalar(self, v: int) -> "Scalar":
        return Scalar(self, v % self.q)

    def element(self, v: int) -> "GroupElement":
        """Wrap v, validating subgroup membership."""
        if not 1 <= v < self.p or _legendre(v, self.p) != 1:
            raise DecodeError(f"{v} is not in the order-{self.q} subgroup")
        return GroupElement(self, v)

    def random_scalar(self, rng) -> "Scalar":
        return Scalar(self, rng.randrange(self.q))

    def random_nonzero_scalar(self, rng) -> "Scalar":
        return Scalar(self, rng.randrange(1, self.q))

    def random_dh_secret(self, rng) -> "Scalar":
        """An ephemeral handshake DH secret, uniform in [1, min(q, 2^275)).

        A short exponent is standard for ephemeral DH over a safe-prime
        group (RFC 7919 section 5.2 and Appendix A.2; NIST SP 800-56A
        Rev. 3 section 5.6.1.1.4 draws from [1, M - 1] with
        M = min(2^N, q)). On a group with q below 2^275 this is exactly
        ``random_nonzero_scalar``: the same value from the same rng draw.
        """
        return Scalar(self, rng.randrange(1, min(self.q, 1 << _DH_SECRET_BITS)))

    def decode_element(self, b: bytes) -> "GroupElement":
        if len(b) != self.element_size:
            raise DecodeError("bad element width")
        return self.element(int.from_bytes(b, "big"))

    def hash_to_group(self, msg: bytes) -> "GroupElement":
        return hash_to_group(msg, self)

    def all_elements(self) -> list["GroupElement"]:
        """Every group element; only sensible for the test backend."""
        if self.q > 4096:
            raise ValueError("enumeration is for the small test backend")
        out = [self.identity]
        x = self.generator
        for _ in range(self.q - 1):
            out.append(x)
            x = x.mul(self.generator)
        return out

    def __repr__(self):
        return f"GroupBackend({self.name})"


class GroupElement:
    """Element of the backend's prime-order subgroup."""

    __slots__ = ("backend", "value")

    def __init__(self, backend: GroupBackend, value: int):
        self.backend = backend
        self.value = value

    def exp(self, e: "Scalar") -> "GroupElement":
        b = self.backend
        k = e.value
        if (b.q - k).bit_length() <= b.short_exp_bits:
            k -= b.q  # x^q = 1, and pow takes a short negative power cheaply
        elif (b._dh_generator is not None
              and k.bit_length() > b.short_exp_bits and self.value != 1):
            return GroupElement(b, b._openssl_pow(self.value, k))
        return GroupElement(b, pow(self.value, k, b.p))

    def mul(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.backend, (self.value * other.value) % self.backend.p)

    def is_identity(self) -> bool:
        return self.value == 1

    def encode(self) -> bytes:
        return self.value.to_bytes(self.backend.element_size, "big")

    def __eq__(self, other):
        return (isinstance(other, GroupElement)
                and self.backend is other.backend
                and self.value == other.value)

    def __hash__(self):
        return hash((self.backend.name, self.value))

    def __repr__(self):
        return f"GroupElement({self.value} mod {self.backend.p})"


class Scalar:
    """Integer modulo the group order q."""

    __slots__ = ("backend", "value")

    def __init__(self, backend: GroupBackend, value: int):
        self.backend = backend
        self.value = value % backend.q

    def mul(self, other: "Scalar") -> "Scalar":
        return Scalar(self.backend, (self.value * other.value) % self.backend.q)

    def add(self, other: "Scalar") -> "Scalar":
        return Scalar(self.backend, (self.value + other.value) % self.backend.q)

    def inverse(self) -> "Scalar":
        if self.value == 0:
            raise ZeroDivisionError("zero scalar has no inverse")
        return Scalar(self.backend, pow(self.value, -1, self.backend.q))

    def encode(self) -> bytes:
        return self.value.to_bytes(self.backend.scalar_size, "big")

    def __eq__(self, other):
        return (isinstance(other, Scalar)
                and self.backend is other.backend
                and self.value == other.value)

    def __hash__(self):
        return hash((self.backend.name, "scalar", self.value))

    def __repr__(self):
        return f"Scalar({self.value} mod {self.backend.q})"


def exp(base: GroupElement, e: Scalar) -> GroupElement:
    """base^e in the group. exp(exp(x,a),b) == exp(x, a*b mod q)."""
    return base.exp(e)


def hash_to_group(msg: bytes, backend: GroupBackend) -> GroupElement:
    """Deterministically map bytes into the group, never hitting the identity.

    Test backend: g^(SHA-256(msg) mod q), with a remap of the identity to g.
    Prod backend: square a SHAKE-256 expansion of msg mod p, landing in the
    quadratic-residue subgroup with unknown discrete log; identity remaps to g.
    """
    if backend.name == "test":
        e = int.from_bytes(hashlib.sha256(msg).digest(), "big") % backend.q
        elt = backend.generator.exp(Scalar(backend, e))
    else:
        width = (backend.p.bit_length() + 7) // 8
        x = int.from_bytes(hashlib.shake_256(msg).digest(width), "big")
        x = (x % (backend.p - 1)) + 1
        elt = GroupElement(backend, pow(x, 2, backend.p))
    if elt.is_identity():
        return backend.generator
    return elt


TEST_BACKEND = GroupBackend("test", p=23, q=11, g=2, element_size=4, scalar_size=4)

_prod = None


def prod_backend() -> GroupBackend:
    global _prod
    if _prod is None:
        p = _RFC3526_3072_P
        _prod = GroupBackend("prod", p=p, q=(p - 1) // 2, g=2,
                             element_size=384, scalar_size=384)
    return _prod


def get_backend(name: str) -> GroupBackend:
    if name == "test":
        return TEST_BACKEND
    if name == "prod":
        return prod_backend()
    raise ValueError(f"unknown backend {name!r}")


# --- signatures -------------------------------------------------------------

class VerifyKey:
    __slots__ = ("_raw",)

    def __init__(self, raw: bytes):
        if len(raw) != 32:
            raise DecodeError("verify key must be 32 bytes")
        self._raw = raw

    def verify(self, msg: bytes, sig: bytes) -> bool:
        """True iff sig was made by the matching signing key over exactly msg."""
        try:
            Ed25519PublicKey.from_public_bytes(self._raw).verify(sig, msg)
            return True
        except (InvalidSignature, ValueError):
            return False

    def encode(self) -> bytes:
        return self._raw

    def __eq__(self, other):
        return isinstance(other, VerifyKey) and self._raw == other._raw

    def __hash__(self):
        return hash(self._raw)

    def __repr__(self):
        return f"VerifyKey({self._raw.hex()[:12]})"


class SigningKey:
    __slots__ = ("_seed", "_key")

    def __init__(self, seed: bytes):
        if len(seed) != 32:
            raise DecodeError("signing key seed must be 32 bytes")
        self._seed = seed
        self._key = Ed25519PrivateKey.from_private_bytes(seed)

    @classmethod
    def generate(cls, rng) -> "SigningKey":
        return cls(rng.randbytes(32))

    def sign(self, msg: bytes) -> bytes:
        return self._key.sign(msg)

    @property
    def verify_key(self) -> VerifyKey:
        return VerifyKey(self._key.public_key().public_bytes_raw())

    def encode(self) -> bytes:
        return self._seed


# --- authenticated encryption ------------------------------------------------

KEY_SIZE = 32

# Sequence value reserved for handshake finished messages so that data
# records can start at sequence 0, which is what the cross-connection
# record-swap experiment depends on.
FIN_SEQ = 2 ** 64 - 1


def _nonce(seq: int) -> bytes:
    if not 0 <= seq < 2 ** 64:
        raise ValueError("sequence number out of range")
    return b"\x00\x00\x00\x00" + seq.to_bytes(8, "big")


def aead_seal(key: bytes, seq: int, plaintext: bytes) -> bytes:
    if len(key) != KEY_SIZE:
        raise ValueError("AEAD key must be 32 bytes")
    return ChaCha20Poly1305(key).encrypt(_nonce(seq), plaintext, b"")


def aead_open(key: bytes, seq: int, ciphertext: bytes) -> bytes:
    if len(key) != KEY_SIZE:
        raise ValueError("AEAD key must be 32 bytes")
    try:
        return ChaCha20Poly1305(key).decrypt(_nonce(seq), ciphertext, b"")
    except InvalidTag:
        raise AuthenticationFailure("record failed authentication") from None
