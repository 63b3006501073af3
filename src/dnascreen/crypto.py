"""Prime-order group backends, hash-to-group, signatures, and channel AEAD.

Two interchangeable group backends sit behind one interface:

- ``test``: the order-11 subgroup of the integers mod 23 generated by 2.
  Small enough that every algebraic property can be checked by brute force.
- ``prod``: ristretto255 (RFC 9496), the prime-order group of order
  l = 2^252 + 27742317777372353535851937790883648493 built on edwards25519,
  in pure Python. Roughly 128-bit security, 32-byte elements.

All protocol logic above this module is backend-generic: it sees only
``GroupElement`` and ``Scalar``, written multiplicatively (``exp``, ``mul``)
on both backends. Signatures are Ed25519 over canonical encodings, and the
record AEAD is ChaCha20-Poly1305 with the 64-bit per-direction sequence
number baked into the nonce.

An element encodes as a fixed-width canonical integer: the residue itself,
big-endian, on ``test``; ristretto255's 32-byte little-endian s on ``prod``.
Decoding is the membership check. On ``test`` (p = 2q + 1 a safe prime) it
tests v^q = 1 (mod p); on ``prod`` it is RFC 9496's decode, which refuses a
non-canonical or negative s and any s that is not the encoding of a group
element. Scalars encode big-endian on both backends.

Every ``GroupElement`` has an order dividing q, so ``exp`` computes x^e as
the inverse of x^(q - e) when q - e is short (at most 16 bits, or half the
bits of q on a smaller group). That turns an exponent such as q - 1 (the
Lagrange coefficient -1) into one inverse: on ``prod``, a point negation.

On ``prod`` a full-length scalar multiplication runs on OpenSSL's X25519
(RFC 7748) on half the scalar: two Montgomery ladders give u(H) and
u(H + D), and Okeya-Sakurai recovery turns them into the whole point H.
X25519 clamps its scalar to 2^254 + 8m, so the ladders get 8j and 8j + 8
with 16j = k or 16j = -k (mod l), whichever puts 8j in that form: the
factor 8 clears the 4-torsion a ristretto255 representative carries, and
the sign is undone on H. Because the two clamped scalars differ by 8, the
known difference is D = 8P. The result is 2H, in the class of kP, and it
keeps H: RFC 9496's encode of a doubled point needs one inversion and no
square root. For the generator the ladders are X25519 public-key
derivations (its base point u = 9 is edwards25519's B), and D's constants
are computed once. Building the two X25519 keys costs OpenSSL a fixed-base
ladder each, so a ``Scalar`` keeps its keys and later products under it
skip them. Short scalars, the identity's class and the ~2^-125 share of
scalars for which neither of +-k has such a form take the signed radix-16
multiplication in Python.

The ``prod`` arithmetic is variable time: the choice of +-k, the fallback
and the short multiplication branch on the scalar, and the codecs branch on
their inputs; only the ladders themselves are OpenSSL's. Nothing in this
repository measures timing side channels; a deployment would use a
constant-time implementation.
"""

import hashlib

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from .errors import AuthenticationFailure, DecodeError

# q - e of at most this many bits makes x^e one short power and an inverse.
_SHORT_EXP_BITS = 16


class GroupBackend:
    """A cyclic group of prime order q with fixed-width canonical encodings.

    A subclass holds elements as whatever values suit its arithmetic and
    supplies it on them: ``_decode`` (canonical integer to value, raising
    ``DecodeError`` for a non-member), ``_canonical`` (the inverse),
    ``_mul``, ``_pow`` (to a power k >= 0, given the ``Scalar`` of value k
    when there is one), ``_inv``, ``_is_identity`` and ``_hash`` (bytes to
    a ``GroupElement``).
    """

    byteorder = "big"  # of element encodings; scalars are always big-endian

    def __init__(self, name: str, q: int, element_size: int, scalar_size: int,
                 generator, identity):
        self.name = name
        self.q = q
        self.element_size = element_size
        self.scalar_size = scalar_size
        self.generator = GroupElement(self, generator)
        self.identity = GroupElement(self, identity)
        self.short_exp_bits = min(q.bit_length() // 2, _SHORT_EXP_BITS)

    def scalar(self, v: int) -> "Scalar":
        return Scalar(self, v % self.q)

    def element(self, v: int) -> "GroupElement":
        """The element whose canonical integer is v, validating membership."""
        return GroupElement(self, self._decode(v))

    def random_scalar(self, rng) -> "Scalar":
        return Scalar(self, rng.randrange(self.q))

    def random_nonzero_scalar(self, rng) -> "Scalar":
        return Scalar(self, rng.randrange(1, self.q))

    def _encoding_int(self, b: bytes) -> int:
        if len(b) != self.element_size:
            raise DecodeError("bad element width")
        return int.from_bytes(b, self.byteorder)

    def decode_element(self, b: bytes) -> "GroupElement":
        return self.element(self._encoding_int(b))

    def model_decode(self, b: bytes) -> "GroupElement":
        """``decode_element`` for the adversary closure's modelled work.

        It skips the ``element`` call that perfbench counts as one of the
        protocol's membership checks; the check itself still runs.
        """
        return GroupElement(self, self._decode(self._encoding_int(b)))

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


class ModularGroup(GroupBackend):
    """The order-q subgroup of the integers mod the safe prime p = 2q + 1.

    The subgroup is exactly the quadratic residues mod p, and g generates it.
    """

    def __init__(self, name: str, p: int, q: int, g: int,
                 element_size: int, scalar_size: int):
        if p != 2 * q + 1:
            raise ValueError("p must be the safe prime 2q + 1")
        self.p = p
        self.g = g
        super().__init__(name, q, element_size, scalar_size, g, 1)

    def _decode(self, v: int) -> int:
        if not 1 <= v < self.p or pow(v, self.q, self.p) != 1:
            raise DecodeError(f"{v} is not in the order-{self.q} subgroup")
        return v

    def _canonical(self, v: int) -> int:
        return v

    def _mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def _pow(self, v: int, k: int, scalar=None) -> int:
        return pow(v, k, self.p)

    def _inv(self, v: int) -> int:
        return pow(v, -1, self.p)

    def _is_identity(self, v: int) -> bool:
        return v == 1

    def _hash(self, msg: bytes) -> "GroupElement":
        """g^(SHA-256(msg) mod q)."""
        e = int.from_bytes(hashlib.sha256(msg).digest(), "big") % self.q
        return self.generator.exp(Scalar(self, e))


# --- ristretto255 over edwards25519 (RFC 9496) ------------------------------
#
# Points are extended twisted Edwards coordinates (X, Y, Z, T) on
# -x^2 + y^2 = 1 + d x^2 y^2, with x = X/Z, y = Y/Z, xy = T/Z and every
# coordinate reduced into [0, p). A ristretto255 element is a class of four
# such points that differ by a 4-torsion point; encode picks one canonical
# byte string per class.

_P = 2 ** 255 - 19
_L = 2 ** 252 + 27742317777372353535851937790883648493
_D = -121665 * pow(121666, -1, _P) % _P
_D2 = 2 * _D % _P
_SQRT_M1 = pow(2, (_P - 1) // 4, _P)
# The two roots as RFC 9496 section 4.1 lists them. The sign of
# SQRT_AD_MINUS_ONE decides between P and -P in the element-derivation map;
# the sign of INVSQRT_A_MINUS_D cancels in encode.
_SQRT_AD_MINUS_ONE = int(
    "25063068953384623474111414158702152701244531502492656460079210482610430750235")
_INVSQRT_A_MINUS_D = int(
    "54469307008909316920995813868745141605393597292927456921205312896311721017578")
_ONE_MINUS_D_SQ = (1 - _D * _D) % _P
_D_MINUS_ONE_SQ = (_D - 1) ** 2 % _P

_ED_IDENTITY = (0, 1, 1, 0)


def _sqrt_ratio_m1(u: int, v: int) -> tuple[bool, int]:
    """(was_square, r): the even root r of u/v if u/v is square, else of
    SQRT_M1 * u/v (RFC 9496 section 4.2)."""
    P = _P
    u %= P
    v3 = v * v % P * v % P
    r = u * v3 % P * pow(u * v3 % P * v3 % P * v % P, (P - 5) // 8, P) % P
    check = v * r % P * r % P
    correct = check == u
    flipped = check == -u % P
    if flipped or check == -u * _SQRT_M1 % P:
        r = r * _SQRT_M1 % P
    if r & 1:
        r = P - r
    return correct or flipped, r


def _ed_double(p1: tuple) -> tuple:
    """2 * p1 (dbl-2008-hwcd for a = -1); it does not read T."""
    P = _P
    X, Y, Z, _ = p1
    a, b, s = X * X % P, Y * Y % P, X + Y
    h, g = a + b, a - b
    e, f = h - s * s % P, 2 * Z * Z % P + g
    return e * f % P, g * h % P, f * g % P, e * h % P


def _ed_neg(p1: tuple) -> tuple:
    X, Y, Z, T = p1
    return -X % _P, Y, Z, -T % _P


def _radix16(k: int) -> list[int]:
    """Signed radix-16 digits of k >= 0, least significant first, each in
    [-7, 8]; the most significant is positive."""
    digits = []
    while k:
        digit = k & 15
        k >>= 4
        if digit > 8:
            digit -= 16
            k += 1
        digits.append(digit)
    return digits


def _cached(p1: tuple) -> tuple:
    """p1 as the (Y - X, Y + X, 2d T, 2 Z) that an addition reads."""
    X, Y, Z, T = p1
    return (Y - X) % _P, (Y + X) % _P, T * _D2 % _P, 2 * Z % _P


def _ed_add_cached(p1: tuple, c: tuple) -> tuple:
    """p1 + p2 for p2 in cached form (add-2008-hwcd-3 for a = -1)."""
    P = _P
    X, Y, Z, T = p1
    ym, yp, t2d, z2 = c
    a = (Y - X) * ym % P
    b = (Y + X) * yp % P
    c = T * t2d % P
    d = Z * z2 % P
    e, f, g, h = b - a, d - c, d + c, b + a
    return e * f % P, g * h % P, f * g % P, e * h % P


def _ed_add(p1: tuple, p2: tuple) -> tuple:
    return _ed_add_cached(p1, _cached(p2))


def _digit_table(p1: tuple, top: int) -> list:
    """t[j] = j * p1 in cached form for j in [-7, top], j != 0, read with
    Python's negative indices for negative j."""
    multiples = [p1]
    if top > 1:
        multiples.append(_ed_double(p1))
    while len(multiples) < top:
        multiples.append(_ed_add(multiples[-1], p1))
    cached = [_cached(m) for m in multiples]
    # -(x, y) = (-x, y): Y - X and Y + X swap and T changes sign
    negated = [(yp, ym, -t2d % _P, z2) for ym, yp, t2d, z2 in cached[:7]]
    return [None, *cached, *[None] * (8 - top), *reversed(negated)]


def _ed_mul(p1: tuple, k: int) -> tuple:
    """k * p1 for k >= 0: four doublings and at most one addition per
    signed radix-16 digit. The first three doublings skip T, which only an
    addition reads."""
    digits = _radix16(k)
    if not digits:
        return _ED_IDENTITY
    P = _P
    table = _digit_table(p1, max(map(abs, digits)))
    acc = _ed_add_cached(_ED_IDENTITY, table[digits.pop()])
    X, Y, Z, _ = acc
    for digit in reversed(digits):
        for _ in range(3):
            a, b, s = X * X % P, Y * Y % P, X + Y
            h, g = a + b, a - b
            e, f = h - s * s % P, 2 * Z * Z % P + g
            X, Y, Z = e * f % P, g * h % P, f * g % P
        acc = _ed_double((X, Y, Z, None))
        if digit:
            acc = _ed_add_cached(acc, table[digit])
        X, Y, Z, _ = acc
    return acc


# --- full-length multiplication on OpenSSL's X25519 ladder ------------------
#
# X25519 (RFC 7748) returns u(k * Q) on curve25519, v^2 = u^3 + A u^2 + u,
# the Montgomery form of edwards25519 under u = (1 + y) / (1 - y) and
# v = c u / x with c^2 = -(A + 2). It clamps k to 2^254 + 8m with m < 2^251.
# The factor 8 clears the 4-torsion part of a ristretto255 representative,
# so a clamped k' = 8j with 16j = +-k (mod l) lands on H = +-(k/2) times the
# prime-order part of the point, and 2H is in the class of +-k times the
# point. One of +-k has such a j for all but a ~2^-125 share of k. Returning
# 2H with H kept lets the encode use the doubling in place of a square root.

_A = 486662
_INV16 = pow(16, -1, _L)
# 8j and 8j + 8 are both clamped scalars exactly for j in [2^251, 2^252 - 1)
_J_MIN, _J_END = 2 ** 251, 2 ** 252 - 1


class _Doubled(tuple):
    """2H as the point ``_ed_double(H)``, keeping H in ``half`` so that
    ``_ristretto_encode`` takes ``_ristretto_encode_double(H)``."""

    def __new__(cls, half: tuple):
        point = super().__new__(cls, _ed_double(half))
        point.half = half
        return point


def _x25519(private: X25519PrivateKey, public: X25519PublicKey | None
            ) -> int:
    """u(k * Q) for the clamped k of ``private``, with Q given as an X25519
    public key. For Q = B (None) it is the key's own public u: X25519's
    u = 9 is B."""
    if public is None:
        return int.from_bytes(private.public_key().public_bytes_raw(), "little")
    return int.from_bytes(private.exchange(public), "little")


def _ladder_keys(k: int) -> tuple:
    """(sign, key of 8j, key of 8j + 8) with 16j = sign * k (mod l) and both
    keys clamped scalars, or () when neither sign has such a j.

    OpenSSL derives each key's public u as it builds the key, so a key costs
    one fixed-base ladder; ``Scalar`` keeps the keys for its value.
    """
    j, sign = k * _INV16 % _L, 1
    if not _J_MIN <= j < _J_END:
        j, sign = _L - j, -1
        if not _J_MIN <= j < _J_END:
            return ()
    return (sign, *(X25519PrivateKey.from_private_bytes(c.to_bytes(32, "little"))
                    for c in (8 * j, 8 * j + 8)))


def _ladder_constants(p1: tuple) -> tuple | None:
    """(u(p1), u_D, 1 / x_D) for D = 8 * p1, or None when D is the identity
    (p1 in the identity's class), with one inversion."""
    P = _P
    _, Y, Z, _ = p1
    XD, YD, ZD, _ = _ed_double(_ed_double(_ed_double(p1)))
    if not XD:
        return None
    # one inversion for 1 / (Z - Y), 1 / (ZD - YD) and 1 / XD
    a, b = Z - Y, ZD - YD
    ab = a * b % P
    inv = pow(ab * XD, -1, P)
    return ((Z + Y) * b % P * XD % P * inv % P,
            (ZD + YD) * a % P * XD % P * inv % P,
            ZD * ab % P * inv % P)


def _ladder_mul(p1: tuple, k: int, keys: tuple) -> tuple:
    """k * p1 up to 4-torsion, as 2H from two X25519 ladders; ``keys`` is
    ``_ladder_keys(k)``.

    The ladders give u(H) and u(H + D) for H = 8j * p1 and D = 8 * p1 =
    (u_D, v_D). Okeya-Sakurai (CHES 2001) recovers H's v:
    2 v_D v = (u u_D + 1)(u + u_D + 2A) - 2A - (u - u_D)^2 u(H + D).
    The map back, x = c u / v with v_D = c u_D / x_D, squares c out:
    x = -2(A + 2) u u_D / (x_D * 2 v_D v) and y = (u - 1) / (u + 1).
    For the generator the ladders are fixed-base and D's constants are the
    module's.

    It takes ``_ed_mul`` when neither of +-k has a j in [_J_MIN, _J_END),
    which also keeps H and H + D from the identity, and when p1 is in the
    identity's class (then D is the identity: x_D = 0).
    """
    if not keys:
        return _ed_mul(p1, k)
    sign, key, key_next = keys
    P = _P
    if p1 is _ED_BASE:
        public, u_d, x_d_inv = None, _BASE_U_D, _BASE_X_D_INV
    else:
        constants = _ladder_constants(p1)
        if constants is None:
            return _ed_mul(p1, k)
        u_p, u_d, x_d_inv = constants
        public = X25519PublicKey.from_public_bytes(u_p.to_bytes(32, "little"))
    u = _x25519(key, public)
    u_next = _x25519(key_next, public)
    two_vd_v = ((u * u_d + 1) * (u + u_d + 2 * _A) - 2 * _A
                - (u - u_d) ** 2 * u_next) % P
    # x = w / two_vd_v; the sign of w picks H or -H
    w = -2 * (_A + 2) * sign * u * u_d % P * x_d_inv % P
    return _Doubled((w * (u + 1) % P, two_vd_v * (u - 1) % P,
                     two_vd_v * (u + 1) % P, w * (u - 1) % P))


def _ristretto_decode(s: int) -> tuple:
    """The point that s encodes (RFC 9496 section 4.3.1)."""
    P = _P
    if s >= P or s & 1:
        raise DecodeError("not a canonical ristretto255 encoding")
    ss = s * s % P
    u1, u2 = 1 - ss, 1 + ss
    u2_sqr = u2 * u2 % P
    v = (-_D * u1 * u1 - u2_sqr) % P
    was_square, invsqrt = _sqrt_ratio_m1(1, v * u2_sqr)
    den_x = invsqrt * u2 % P
    den_y = invsqrt * den_x % P * v % P
    x = 2 * s * den_x % P
    if x & 1:
        x = P - x
    y = u1 * den_y % P
    t = x * y % P
    if not was_square or t & 1 or y == 0:
        raise DecodeError("not a ristretto255 element")
    return x, y, 1, t


def _ristretto_encode(p1: tuple) -> int:
    """The canonical s of p1's class (RFC 9496 section 4.3.2)."""
    if type(p1) is _Doubled:
        return _ristretto_encode_double(p1.half)
    P = _P
    X0, Y0, Z0, T0 = p1
    u1 = (Z0 + Y0) * (Z0 - Y0) % P
    u2 = X0 * Y0 % P
    _, invsqrt = _sqrt_ratio_m1(1, u1 * u2 % P * u2)
    den1 = invsqrt * u1 % P
    den2 = invsqrt * u2 % P
    z_inv = den1 * den2 % P * T0 % P
    if T0 * z_inv % P & 1:  # rotate by the 4-torsion point (i, 0)
        X, Y = Y0 * _SQRT_M1 % P, X0 * _SQRT_M1 % P
        den_inv = den1 * _INVSQRT_A_MINUS_D % P
    else:
        X, Y, den_inv = X0, Y0, den2
    if X * z_inv % P & 1:
        Y = P - Y
    s = den_inv * (Z0 - Y) % P
    return P - s if s & 1 else s


def _ristretto_encode_double(h1: tuple) -> int:
    """The canonical s of 2 * h1's class, with one inversion and no root.

    2 * h1 = (e h : g f : f h : e g) for e = 2XY, f = Z^2 + d T^2,
    g = Y^2 + X^2 and h = Z^2 - d T^2, and these factors supply the square
    root that RFC 9496's encode would compute (the identity behind
    curve25519-dalek's ``double_and_compress_batch``). 2 * h1 must not be
    in the identity's class, or eg * fh is 0.
    """
    P = _P
    X, Y, Z, T = h1
    zz, dtt = Z * Z % P, _D * T % P * T % P
    e, f, g, h = 2 * X * Y % P, zz + dtt, (Y * Y + X * X) % P, zz - dtt
    eg, fh = e * g % P, f * h % P
    inv = pow(eg * fh, -1, P)
    z_inv, t_inv = eg * inv % P, fh * inv % P  # 1 / Z and 1 / T of 2 * h1
    magic = _INVSQRT_A_MINUS_D
    if eg * z_inv % P & 1:  # rotate by the 4-torsion point (i, 0)
        e, g, h, magic = g, -e, f * _SQRT_M1 % P, _SQRT_M1
    if h * e % P * z_inv % P & 1:
        g = -g
    s = (h - g) * magic % P * g % P * t_inv % P
    return P - s if s & 1 else s


def _ristretto_map(b: bytes) -> tuple:
    """The one-way map of 32 bytes to a point (RFC 9496 section 4.3.4)."""
    P = _P
    t = int.from_bytes(b, "little") & ((1 << 255) - 1)
    r = _SQRT_M1 * t % P * t % P
    u = (r + 1) * _ONE_MINUS_D_SQ % P
    v = (-1 - r * _D) * (r + _D) % P
    was_square, s = _sqrt_ratio_m1(u, v)
    c = -1
    if not was_square:
        s, c = s * t % P, r
        if not s & 1:  # s = -|s t|, where |x| is the even one of x and -x
            s = -s % P
    n = (c * (r - 1) * _D_MINUS_ONE_SQ - v) % P
    w0 = 2 * s * v % P
    w1 = n * _SQRT_AD_MINUS_ONE % P
    ss = s * s % P
    w2, w3 = 1 - ss, 1 + ss
    return w0 * w3 % P, w2 * w1 % P, w1 * w3 % P, w0 * w2 % P


def _ed_base() -> tuple:
    """The edwards25519 base point: y = 4/5 and x even."""
    y = 4 * pow(5, -1, _P) % _P
    _, x = _sqrt_ratio_m1(y * y - 1, _D * y * y + 1)
    return x, y, 1, x * y % _P


_ED_BASE = _ed_base()
_, _BASE_U_D, _BASE_X_D_INV = _ladder_constants(_ED_BASE)


class Ristretto255(GroupBackend):
    """ristretto255: the prime-order group of RFC 9496 in pure Python."""

    byteorder = "little"

    def __init__(self, name: str):
        super().__init__(name, _L, element_size=32, scalar_size=32,
                         generator=_ED_BASE, identity=_ED_IDENTITY)

    _decode = staticmethod(_ristretto_decode)
    _canonical = staticmethod(_ristretto_encode)
    _mul = staticmethod(_ed_add)
    _inv = staticmethod(_ed_neg)

    def _pow(self, v: tuple, k: int, scalar: "Scalar | None" = None) -> tuple:
        """k * v; a ``scalar`` of value k keeps its ladder keys for the next
        product."""
        if k.bit_length() <= self.short_exp_bits:
            return _ed_mul(v, k)
        if scalar is None:
            return _ladder_mul(v, k, _ladder_keys(k))
        if scalar._ladder is None:
            scalar._ladder = _ladder_keys(k)
        return _ladder_mul(v, k, scalar._ladder)

    @staticmethod
    def _is_identity(p1: tuple) -> bool:
        # the identity's class is the 4-torsion: (0, +-1) and (+-i, 0)
        return p1[0] == 0 or p1[1] == 0

    def _hash(self, msg: bytes) -> "GroupElement":
        """Element derivation from SHA-512(msg) (RFC 9496 section 4.3.4)."""
        h = hashlib.sha512(msg).digest()
        return GroupElement(self, _ed_add(_ristretto_map(h[:32]),
                                          _ristretto_map(h[32:])))


class GroupElement:
    """Element of the backend's prime-order group."""

    __slots__ = ("backend", "value")

    def __init__(self, backend: GroupBackend, value):
        self.backend = backend
        self.value = value

    def exp(self, e: "Scalar") -> "GroupElement":
        return self.power(e.value, e)

    def power(self, k: int, scalar: "Scalar | None" = None) -> "GroupElement":
        """self^k for 0 <= k <= q; ``exp`` outside perfbench's count. The
        backend may keep per-scalar work in ``scalar``, the Scalar of value
        k that ``exp`` passes."""
        b = self.backend
        m = b.q - k
        if m.bit_length() <= b.short_exp_bits:
            # x^q is the identity, so x^k is the inverse of the short x^m
            return GroupElement(b, b._inv(b._pow(self.value, m)))
        return GroupElement(b, b._pow(self.value, k, scalar))

    def mul(self, other: "GroupElement") -> "GroupElement":
        b = self.backend
        return GroupElement(b, b._mul(self.value, other.value))

    def is_identity(self) -> bool:
        return self.backend._is_identity(self.value)

    def encode(self) -> bytes:
        b = self.backend
        return b._canonical(self.value).to_bytes(b.element_size, b.byteorder)

    def __eq__(self, other):
        return (isinstance(other, GroupElement)
                and self.backend is other.backend
                and (self.backend._canonical(self.value)
                     == other.backend._canonical(other.value)))

    def __hash__(self):
        return hash((self.backend.name, self.backend._canonical(self.value)))

    def __repr__(self):
        return f"GroupElement({self.encode().hex()} in {self.backend.name})"


class Scalar:
    """Integer modulo the group order q.

    A scalar keeps what using it derives: its inverse, and on ``prod`` its
    two X25519 keys (``_ladder``). So each power of one scalar after the
    first skips the key derivations, and the unblinds of an order, which
    all invert one beta, share its inverse and that inverse's keys.
    """

    __slots__ = ("backend", "value", "_ladder", "_inverse")

    def __init__(self, backend: GroupBackend, value: int):
        self.backend = backend
        self.value = value % backend.q
        self._ladder = None
        self._inverse = None

    def mul(self, other: "Scalar") -> "Scalar":
        return Scalar(self.backend, (self.value * other.value) % self.backend.q)

    def add(self, other: "Scalar") -> "Scalar":
        return Scalar(self.backend, (self.value + other.value) % self.backend.q)

    def inverse(self) -> "Scalar":
        if self._inverse is None:
            if self.value == 0:
                raise ZeroDivisionError("zero scalar has no inverse")
            self._inverse = Scalar(self.backend,
                                   pow(self.value, -1, self.backend.q))
        return self._inverse

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

    Test backend: g^(SHA-256(msg) mod q). Prod backend: ristretto255's
    element derivation from SHA-512(msg), which reaches neither ``exp`` nor
    ``element``. Either way an identity remaps to g.
    """
    elt = backend._hash(msg)
    if elt.is_identity():
        return backend.generator
    return elt


TEST_BACKEND = ModularGroup("test", p=23, q=11, g=2, element_size=4,
                            scalar_size=4)
PROD_BACKEND = Ristretto255("prod")


def get_backend(name: str) -> GroupBackend:
    if name == "test":
        return TEST_BACKEND
    if name == "prod":
        return PROD_BACKEND
    raise ValueError(f"unknown backend {name!r}")


# --- signatures -------------------------------------------------------------

class VerifyKey:
    __slots__ = ("_raw", "_key")

    def __init__(self, raw: bytes):
        if len(raw) != 32:
            raise DecodeError("verify key must be 32 bytes")
        self._raw = raw
        self._key = None  # parsed on the first verify

    def verify(self, msg: bytes, sig: bytes) -> bool:
        """True iff sig was made by the matching signing key over exactly msg."""
        try:
            if self._key is None:
                self._key = Ed25519PublicKey.from_public_bytes(self._raw)
            self._key.verify(sig, msg)
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
