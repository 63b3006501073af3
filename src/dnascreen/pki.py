"""Custom certificate hierarchies, tokens, chain validation, revocation.

Three separate hierarchies (manufacturer, infrastructure, exemption), each
root -> intermediate -> leaf, where leaves issue tokens. Tokens are the
working credentials: synthesizer tokens carry a rate limit, keyserver tokens
carry the share index, database tokens an empty payload, and exemption-list
tokens carry the exempt sequences plus a second-factor device id and an
optional sub-token issuing key.

Chains are transmitted leaf-first, root-last. Root trust is byte-equality
against a pinned root. Timestamps are integer seconds of simulated time and
validity is the closed interval [start, end].

Signatures are checked over the bytes that arrived, as X.509 checks them
over the received tbsCertificate (RFC 5280 4.1.1.3): ``decode`` keeps the
signed portion it split off, and validation verifies over those bytes
instead of re-packing the parsed fields. ``decode`` also keeps the whole
encoding it parsed, so a decoded certificate, token or chain encodes to the
bytes that arrived without packing. Issued certificates and tokens keep the
bytes they were signed over and pack their encoding once, on first use, as
an issued chain does. The kept bytes sit outside the dataclass fields, so
``dataclasses.replace`` builds an object that packs again; equality and
hashing stay field-based.

Each role decodes a peer's chain once: ``PeerChains`` keeps the chains its
role has accepted, keyed by their exact bytes, and hands the kept object
back when the same bytes arrive again. Every connection still runs
``validate_chain`` in full on it (signatures, validity windows,
revocation), so the store saves parsing and never a check.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property

from . import wire
from .crypto import SigningKey, VerifyKey
from .errors import (
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

MANUFACTURER = "manufacturer"
INFRASTRUCTURE = "infrastructure"
EXEMPTION = "exemption"
CERT_TYPES = (MANUFACTURER, INFRASTRUCTURE, EXEMPTION)

ROOT = "root"
INTERMEDIATE = "intermediate"
LEAF = "leaf"
LEVELS = (ROOT, INTERMEDIATE, LEAF)

TOKEN_SYNTHESIZER = "synthesizer"
TOKEN_KEYSERVER = "keyserver"
TOKEN_DATABASE = "database"
TOKEN_EXEMPTION = "exemption"

# Which hierarchy may issue which token type.
TOKEN_HIERARCHY = {
    TOKEN_SYNTHESIZER: MANUFACTURER,
    TOKEN_KEYSERVER: INFRASTRUCTURE,
    TOKEN_DATABASE: INFRASTRUCTURE,
    TOKEN_EXEMPTION: EXEMPTION,
}

SIGMA_SIZE = 16
CERT_VERSION = 1
U64_MAX = 2 ** 64 - 1


@dataclass(frozen=True)
class Identity:
    name: str
    email: str = ""

    def __post_init__(self):
        if not self.name:
            raise DecodeError("identity name must be nonempty")

    def encode(self) -> bytes:
        return wire.pack_fields(wire.pack_str(self.name), wire.pack_str(self.email))

    @classmethod
    def decode(cls, b: bytes) -> "Identity":
        name, email = wire.expect_fields(b, 2)
        return cls(wire.unpack_str(name), wire.unpack_str(email))


@dataclass(frozen=True)
class CertDescription:
    version: int
    cert_type: str
    level: str

    def __post_init__(self):
        if self.cert_type not in CERT_TYPES:
            raise DecodeError(f"unknown cert type {self.cert_type!r}")
        if self.level not in LEVELS:
            raise DecodeError(f"unknown level {self.level!r}")

    def encode(self) -> bytes:
        return wire.pack_fields(
            wire.pack_u32(self.version),
            wire.pack_str(self.cert_type),
            wire.pack_str(self.level),
        )

    @classmethod
    def decode(cls, b: bytes) -> "CertDescription":
        v, ct, lv = wire.expect_fields(b, 3)
        return cls(wire.unpack_u32(v), wire.unpack_str(ct), wire.unpack_str(lv))


class _Signed:
    """A certificate or token: signed fields plus ``signature`` over them.

    ``_tbs`` is the signed portion and ``_encoded`` the whole encoding,
    each packed on first use unless decode kept the bytes it parsed or
    issuance the bytes it signed.
    """

    def signed_portion(self) -> bytes:
        return self._tbs

    def encode(self) -> bytes:
        return self._encoded

    @cached_property
    def _encoded(self) -> bytes:
        return wire.pack_fields(self._tbs, self.signature)

    def _keeping(self, tbs: bytes, encoded: bytes | None = None):
        """This object with ``tbs`` kept as its signed portion and, if
        given, ``encoded`` as its encoding."""
        self.__dict__["_tbs"] = tbs
        if encoded is not None:
            self.__dict__["_encoded"] = encoded
        return self


@dataclass(frozen=True)
class Certificate(_Signed):
    subject_id: Identity
    desc: CertDescription
    sigma: bytes
    subject_key: VerifyKey
    issuer_id: Identity
    issuer_key: VerifyKey
    valid_start: int
    valid_end: int
    signature: bytes

    @cached_property
    def _tbs(self) -> bytes:
        return wire.pack_fields(
            b"certificate",
            self.subject_id.encode(),
            self.desc.encode(),
            self.sigma,
            self.subject_key.encode(),
            self.issuer_id.encode(),
            self.issuer_key.encode(),
            wire.pack_u64(self.valid_start),
            wire.pack_u64(self.valid_end),
        )

    @classmethod
    def decode(cls, b: bytes) -> "Certificate":
        signed, sig = wire.expect_fields(b, 2)
        fields = wire.expect_fields(signed, 9)
        if fields[0] != b"certificate":
            raise DecodeError("not a certificate")
        if len(fields[3]) != SIGMA_SIZE:
            raise DecodeError("bad sigma width")
        return cls(
            subject_id=Identity.decode(fields[1]),
            desc=CertDescription.decode(fields[2]),
            sigma=fields[3],
            subject_key=VerifyKey(fields[4]),
            issuer_id=Identity.decode(fields[5]),
            issuer_key=VerifyKey(fields[6]),
            valid_start=wire.unpack_u64(fields[7]),
            valid_end=wire.unpack_u64(fields[8]),
            signature=sig,
        )._keeping(signed, b)


# --- token payloads ---------------------------------------------------------

@dataclass(frozen=True)
class SynthesizerPayload:
    synth_id: str
    rate_limit: int  # any 64-bit value is accepted at issuance

    def __post_init__(self):
        if not 0 <= self.rate_limit <= U64_MAX:
            raise ValueError("rate limit must fit in 64 bits")

    def encode(self) -> bytes:
        return wire.pack_fields(wire.pack_str(self.synth_id),
                                wire.pack_u64(self.rate_limit))


@dataclass(frozen=True)
class KeyserverPayload:
    share_index: int

    def encode(self) -> bytes:
        return wire.pack_fields(wire.pack_u32(self.share_index))


@dataclass(frozen=True)
class DatabasePayload:
    def encode(self) -> bytes:
        return b""


@dataclass(frozen=True)
class ExemptionPayload:
    sequences: tuple
    device_id: str
    subtoken_key: VerifyKey | None = None

    def encode(self) -> bytes:
        seqs = wire.pack_fields(*self.sequences)
        key = self.subtoken_key.encode() if self.subtoken_key else b""
        return wire.pack_fields(seqs, wire.pack_str(self.device_id), key)


_PAYLOAD_TYPES = {
    TOKEN_SYNTHESIZER: SynthesizerPayload,
    TOKEN_KEYSERVER: KeyserverPayload,
    TOKEN_DATABASE: DatabasePayload,
    TOKEN_EXEMPTION: ExemptionPayload,
}


def _decode_payload(token_type: str, b: bytes):
    if token_type == TOKEN_SYNTHESIZER:
        sid, rl = wire.expect_fields(b, 2)
        return SynthesizerPayload(wire.unpack_str(sid), wire.unpack_u64(rl))
    if token_type == TOKEN_KEYSERVER:
        (idx,) = wire.expect_fields(b, 1)
        return KeyserverPayload(wire.unpack_u32(idx))
    if token_type == TOKEN_DATABASE:
        if b != b"":
            raise DecodeError("database token payload must be empty")
        return DatabasePayload()
    if token_type == TOKEN_EXEMPTION:
        seqs, dev, key = wire.expect_fields(b, 3)
        return ExemptionPayload(
            tuple(wire.unpack_fields(seqs)),
            wire.unpack_str(dev),
            VerifyKey(key) if key else None,
        )
    raise DecodeError(f"unknown token type {token_type!r}")


@dataclass(frozen=True)
class Token(_Signed):
    token_type: str
    payload: object
    sigma: bytes
    subject_id: Identity
    subject_key: VerifyKey
    issuer_id: Identity
    issuer_key: VerifyKey
    valid_start: int
    valid_end: int
    signature: bytes

    @cached_property
    def _tbs(self) -> bytes:
        return wire.pack_fields(
            b"token",
            wire.pack_str(self.token_type),
            self.payload.encode(),
            self.sigma,
            self.subject_id.encode(),
            self.subject_key.encode(),
            self.issuer_id.encode(),
            self.issuer_key.encode(),
            wire.pack_u64(self.valid_start),
            wire.pack_u64(self.valid_end),
        )

    @classmethod
    def decode(cls, b: bytes) -> "Token":
        signed, sig = wire.expect_fields(b, 2)
        fields = wire.expect_fields(signed, 10)
        if fields[0] != b"token":
            raise DecodeError("not a token")
        ttype = wire.unpack_str(fields[1])
        if len(fields[3]) != SIGMA_SIZE:
            raise DecodeError("bad sigma width")
        return cls(
            token_type=ttype,
            payload=_decode_payload(ttype, fields[2]),
            sigma=fields[3],
            subject_id=Identity.decode(fields[4]),
            subject_key=VerifyKey(fields[5]),
            issuer_id=Identity.decode(fields[6]),
            issuer_key=VerifyKey(fields[7]),
            valid_start=wire.unpack_u64(fields[8]),
            valid_end=wire.unpack_u64(fields[9]),
            signature=sig,
        )._keeping(signed, b)


@dataclass(frozen=True)
class CertChain:
    """A token plus its path up to the root, leaf-first, root-last.

    ``ancestors`` holds intermediate exemption tokens when ``token`` is a
    sub-token: token -> ancestors[0] -> ... -> path[0] (issuing leaf).
    A bare path with token=None validates certificates only. The encoding
    is packed on first use and kept, so an issued chain packs it once; a
    decoded chain keeps the bytes it was decoded from.
    """

    path: tuple
    token: Token | None = None
    ancestors: tuple = ()

    def encode(self) -> bytes:
        return self._encoded

    @cached_property
    def _encoded(self) -> bytes:
        return wire.pack_fields(
            self.token.encode() if self.token else b"",
            wire.pack_fields(*(t.encode() for t in self.ancestors)),
            wire.pack_fields(*(c.encode() for c in self.path)),
        )

    @classmethod
    def decode(cls, b: bytes) -> "CertChain":
        tok, anc, certs = wire.expect_fields(b, 3)
        chain = cls(
            token=Token.decode(tok) if tok else None,
            ancestors=tuple(Token.decode(t) for t in wire.unpack_fields(anc)),
            path=tuple(Certificate.decode(c) for c in wire.unpack_fields(certs)),
        )
        chain.__dict__["_encoded"] = b
        return chain

    @property
    def leaf(self) -> Certificate:
        return self.path[0]

    @property
    def root(self) -> Certificate:
        return self.path[-1]


class PeerChains:
    """One role's decoded peer chains, keyed by the exact bytes they came as.

    ``decode`` returns the chain kept for those bytes, or decodes them
    afresh, so a malformed chain still raises ``DecodeError`` before any
    validation. The role runs ``validate_chain`` on the result on every
    connection and calls ``keep`` only once it accepted the chain. A chain
    revoked or expired since it was kept is refused like any other, and a
    changed byte is a different key, decoded and validated afresh. The store
    holds only chains that once validated against the role's pinned roots;
    it has no size bound. Each role owns one: roles are separate parties.
    """

    def __init__(self):
        self.chains: dict[bytes, CertChain] = {}

    def decode(self, b: bytes) -> CertChain:
        chain = self.chains.get(b)
        return CertChain.decode(b) if chain is None else chain

    def keep(self, chain: CertChain) -> None:
        """Keep ``chain``, which ``validate_chain`` has just accepted."""
        self.chains.setdefault(chain.encode(), chain)


@dataclass
class RevocationList:
    revoked_sigma: set = field(default_factory=set)
    revoked_keys: set = field(default_factory=set)

    def revoke_sigma(self, sigma: bytes):
        self.revoked_sigma.add(sigma)

    def revoke_key(self, key: VerifyKey):
        self.revoked_keys.add(key.encode())

    def hits(self, sigma: bytes, key: VerifyKey) -> bool:
        return sigma in self.revoked_sigma or key.encode() in self.revoked_keys


EMPTY_REVOCATIONS = RevocationList()


# --- issuance ----------------------------------------------------------------

def create_root(cert_type: str, identity: Identity, rng,
                valid_start: int = 0, valid_end: int = U64_MAX - 1
                ) -> tuple[Certificate, SigningKey]:
    """Self-signed root for one hierarchy."""
    key = SigningKey.generate(rng)
    cert = _make_cert(
        subject_id=identity, subject_key=key.verify_key,
        issuer_id=identity, issuer_key=key.verify_key,
        desc=CertDescription(CERT_VERSION, cert_type, ROOT),
        valid_start=valid_start, valid_end=valid_end,
        signing_key=key, rng=rng,
    )
    return cert, key


_ISSUABLE = {ROOT: INTERMEDIATE, INTERMEDIATE: LEAF}


def issue_certificate(issuer: Certificate, issuer_key: SigningKey,
                      subject: Identity, subject_key: VerifyKey,
                      level: str, valid_start: int, valid_end: int,
                      rng) -> Certificate:
    expected = _ISSUABLE.get(issuer.desc.level)
    if expected is None or level != expected:
        raise LevelViolation(
            f"{issuer.desc.level} certificate cannot issue a {level} certificate")
    return _make_cert(
        subject_id=subject, subject_key=subject_key,
        issuer_id=issuer.subject_id, issuer_key=issuer.subject_key,
        desc=CertDescription(CERT_VERSION, issuer.desc.cert_type, level),
        valid_start=valid_start, valid_end=valid_end,
        signing_key=issuer_key, rng=rng,
    )


def _make_cert(subject_id, subject_key, issuer_id, issuer_key, desc,
               valid_start, valid_end, signing_key, rng) -> Certificate:
    if valid_start >= valid_end:
        raise ValueError("validity start must precede end")
    return _signed(Certificate(
        subject_id=subject_id, desc=desc, sigma=rng.randbytes(SIGMA_SIZE),
        subject_key=subject_key, issuer_id=issuer_id, issuer_key=issuer_key,
        valid_start=valid_start, valid_end=valid_end, signature=b"",
    ), signing_key)


def _signed(unsigned, key: SigningKey):
    """A certificate or token with its signed portion signed by ``key``."""
    tbs = unsigned.signed_portion()
    return replace(unsigned, signature=key.sign(tbs))._keeping(tbs)


def issue_token(issuing_leaf: Certificate, leaf_key: SigningKey,
                token_type: str, payload, subject: Identity,
                subject_key: VerifyKey, valid_start: int, valid_end: int,
                rng) -> Token:
    if issuing_leaf.desc.level != LEAF:
        raise LevelViolation("only leaf certificates issue tokens")
    if TOKEN_HIERARCHY.get(token_type) != issuing_leaf.desc.cert_type:
        raise TypeMismatch(
            f"{issuing_leaf.desc.cert_type} leaf cannot issue {token_type} token")
    if not isinstance(payload, _PAYLOAD_TYPES[token_type]):
        raise TypeMismatch(f"payload shape does not match {token_type}")
    return _signed(Token(
        token_type=token_type, payload=payload,
        sigma=rng.randbytes(SIGMA_SIZE),
        subject_id=subject, subject_key=subject_key,
        issuer_id=issuing_leaf.subject_id, issuer_key=issuing_leaf.subject_key,
        valid_start=valid_start, valid_end=valid_end, signature=b"",
    ), leaf_key)


def issue_subtoken(parent: Token, parent_subtoken_key: SigningKey,
                   subset: tuple, rng) -> Token:
    """Derive an exemption sub-token restricted to a subset of the parent's list."""
    if parent.token_type != TOKEN_EXEMPTION:
        raise TypeMismatch("sub-tokens derive from exemption tokens only")
    if parent.payload.subtoken_key is None:
        raise NoSubtokenKey("parent token carries no sub-token key")
    if parent_subtoken_key.verify_key != parent.payload.subtoken_key:
        raise NoSubtokenKey("signing key does not match the parent sub-token key")
    if not set(subset) <= set(parent.payload.sequences):
        raise NotASubset("sub-token sequences must be a subset of the parent's")
    return _signed(Token(
        token_type=TOKEN_EXEMPTION,
        payload=ExemptionPayload(tuple(subset), parent.payload.device_id,
                                 parent.payload.subtoken_key),
        sigma=rng.randbytes(SIGMA_SIZE),
        subject_id=parent.subject_id, subject_key=parent.subject_key,
        issuer_id=parent.subject_id, issuer_key=parent.payload.subtoken_key,
        valid_start=parent.valid_start, valid_end=parent.valid_end,
        signature=b"",
    ), parent_subtoken_key)


# --- validation ----------------------------------------------------------------

def validate_chain(chain: CertChain, trusted_root: Certificate, now: int,
                   revocations: RevocationList = EMPTY_REVOCATIONS) -> None:
    """Raises a ChainError subclass unless the whole chain is acceptable now.

    Depth counts from the token (0) upward; the root sits at the largest
    depth. Adding revocation entries can only shrink the set of accepted
    chains (validation is monotone in the revocation list).
    """
    if not chain.path:
        raise UntrustedRoot("empty certificate path")
    root = chain.root
    if (root.signature != trusted_root.signature
            or root.signed_portion() != trusted_root.signed_portion()):
        raise UntrustedRoot("root does not match the pinned trust anchor")

    n_tokens = (1 if chain.token else 0) + len(chain.ancestors)

    # Walk certificates root -> leaf. path[i] sits at depth n_tokens + i.
    parent = None
    for i in range(len(chain.path) - 1, -1, -1):
        cert = chain.path[i]
        depth = n_tokens + i
        if parent is None:
            if cert.desc.level != ROOT:
                raise LevelViolation("path must terminate at a root certificate")
            signer = cert.subject_key
        else:
            if cert.desc.level != _ISSUABLE.get(parent.desc.level):
                raise LevelViolation(
                    f"{parent.desc.level} may not have issued {cert.desc.level}")
            if cert.desc.cert_type != parent.desc.cert_type:
                raise TypeMismatch("certificate type changes inside the chain")
            if cert.issuer_key != parent.subject_key:
                raise BadSignature("issuer key mismatch", depth=depth)
            signer = parent.subject_key
        _check(cert, signer, "certificate", now, revocations, depth)
        parent = cert

    if chain.token is None:
        if chain.ancestors:
            raise DecodeError("ancestors present without a token")
        return

    # Walk tokens from the leaf-issued ancestor down to the presented token.
    leaf = chain.path[0]
    tokens_top_down = list(chain.ancestors[::-1]) + [chain.token]
    signer_key, signer_cert_type = leaf.subject_key, leaf.desc.cert_type
    parent_token = None
    for j, tok in enumerate(tokens_top_down):
        depth = len(tokens_top_down) - 1 - j
        if TOKEN_HIERARCHY.get(tok.token_type) != signer_cert_type:
            raise TypeMismatch(
                f"{tok.token_type} token under a {signer_cert_type} hierarchy")
        if parent_token is not None:
            if parent_token.token_type != TOKEN_EXEMPTION:
                raise TypeMismatch("only exemption tokens have sub-tokens")
            if parent_token.payload.subtoken_key is None:
                raise BadSignature("parent token has no sub-token key", depth=depth)
            if tok.issuer_key != parent_token.payload.subtoken_key:
                raise BadSignature("sub-token issuer key mismatch", depth=depth)
            if not set(tok.payload.sequences) <= set(parent_token.payload.sequences):
                raise NotASubset("sub-token exceeds its parent's sequence list")
            if tok.payload.device_id != parent_token.payload.device_id:
                raise TypeMismatch("sub-token changes the authenticator device")
            verifier = parent_token.payload.subtoken_key
        else:
            if tok.issuer_key != leaf.subject_key:
                raise BadSignature("token issuer key mismatch", depth=depth)
            verifier = signer_key
        _check(tok, verifier, "token", now, revocations, depth)
        parent_token = tok


def _check(obj, verifier: VerifyKey, what: str, now: int,
           revocations: RevocationList, depth: int) -> None:
    """Signature, validity window and revocation of one certificate or token."""
    if not verifier.verify(obj.signed_portion(), obj.signature):
        raise BadSignature(f"{what} signature invalid", depth=depth)
    if not obj.valid_start <= now <= obj.valid_end:
        raise Expired(f"{what} outside validity window", depth=depth)
    if revocations.hits(obj.sigma, obj.subject_key):
        raise Revoked(f"{what} revoked", depth=depth)


def chain_is_valid(chain: CertChain, trusted_root: Certificate, now: int,
                   revocations: RevocationList = EMPTY_REVOCATIONS) -> bool:
    try:
        validate_chain(chain, trusted_root, now, revocations)
        return True
    except ScreeningError:
        return False


# --- readable dumps -------------------------------------------------------------

def dump_text(obj) -> str:
    """One field per line, for fixture review."""
    lines = []
    if isinstance(obj, Certificate):
        lines += [
            "kind: certificate",
            f"subject: {obj.subject_id.name} <{obj.subject_id.email}>",
            f"type: {obj.desc.cert_type}",
            f"level: {obj.desc.level}",
            f"sigma: {obj.sigma.hex()}",
            f"subject_key: {obj.subject_key.encode().hex()}",
            f"issuer: {obj.issuer_id.name} <{obj.issuer_id.email}>",
            f"issuer_key: {obj.issuer_key.encode().hex()}",
            f"valid: [{obj.valid_start}, {obj.valid_end}]",
            f"signature: {obj.signature.hex()}",
        ]
    elif isinstance(obj, Token):
        lines += [
            "kind: token",
            f"token_type: {obj.token_type}",
            f"sigma: {obj.sigma.hex()}",
            f"subject: {obj.subject_id.name} <{obj.subject_id.email}>",
            f"subject_key: {obj.subject_key.encode().hex()}",
            f"issuer: {obj.issuer_id.name} <{obj.issuer_id.email}>",
            f"valid: [{obj.valid_start}, {obj.valid_end}]",
        ]
        p = obj.payload
        if isinstance(p, SynthesizerPayload):
            lines += [f"synth_id: {p.synth_id}", f"rate_limit: {p.rate_limit}"]
        elif isinstance(p, KeyserverPayload):
            lines += [f"share_index: {p.share_index}"]
        elif isinstance(p, ExemptionPayload):
            lines += [f"device_id: {p.device_id}",
                      f"sequences: {','.join(s.hex() for s in p.sequences)}",
                      f"subtoken_key: "
                      f"{p.subtoken_key.encode().hex() if p.subtoken_key else '-'}"]
        lines.append(f"signature: {obj.signature.hex()}")
    elif isinstance(obj, CertChain):
        if obj.token:
            lines.append(dump_text(obj.token))
        for t in obj.ancestors:
            lines.append(dump_text(t))
        for c in obj.path:
            lines.append(dump_text(c))
        return "\n---\n".join(lines)
    else:
        raise TypeError(f"cannot dump {type(obj).__name__}")
    return "\n".join(lines)
