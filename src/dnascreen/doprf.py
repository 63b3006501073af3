"""Blinded distributed PRF: f_k(s) = M(s)^k evaluated via Shamir shares of k.

The querying side blinds M(s) with a fresh exponent, each keyserver raises
the blinded element to its key share, and the results are combined with
Lagrange coefficients in the exponent before unblinding. ``doprf_direct``
is the independent single-party oracle the distributed pipeline must equal.
"""

from dataclasses import dataclass

from .crypto import GroupBackend, GroupElement, Scalar, hash_to_group
from .errors import (
    DuplicateIndex,
    InvalidThreshold,
    NonInvertibleBlind,
    WrongResponseCount,
)


@dataclass(frozen=True)
class KeyShare:
    """Share (index, f(index)) of a degree-(t-1) polynomial with f(0) = k."""

    index: int
    value: Scalar


def shares_from_coeffs(coeffs: list[Scalar], n: int) -> list[KeyShare]:
    """Evaluate the sharing polynomial at 1..n. coeffs[0] is the secret."""
    backend = coeffs[0].backend
    q = backend.q
    shares = []
    for i in range(1, n + 1):
        acc = 0
        for j, c in enumerate(coeffs):
            acc = (acc + c.value * pow(i, j, q)) % q
        shares.append(KeyShare(i, Scalar(backend, acc)))
    return shares


def share_key(k: Scalar, n: int, t: int, rng) -> list[KeyShare]:
    """Split k into n shares, any t of which reconstruct it."""
    if t < 1 or t > n or n >= k.backend.q:
        raise InvalidThreshold(f"invalid (t={t}, n={n}) for group order {k.backend.q}")
    coeffs = [k] + [k.backend.random_scalar(rng) for _ in range(t - 1)]
    return shares_from_coeffs(coeffs, n)


def lagrange_at_zero(indices: list[int], backend: GroupBackend) -> dict[int, Scalar]:
    """Coefficients lambda_i with sum(lambda_i * f(i)) = f(0) mod q."""
    q = backend.q
    out = {}
    for i in indices:
        num, den = 1, 1
        for j in indices:
            if j == i:
                continue
            num = (num * j) % q
            den = (den * (j - i)) % q
        out[i] = Scalar(backend, num * pow(den, -1, q))
    return out


def blind(h: GroupElement, beta: Scalar) -> GroupElement:
    """h^beta; hides h from the keyservers for any fresh nonzero beta."""
    if beta.value == 0:
        raise NonInvertibleBlind("blinding factor must be nonzero")
    return h.exp(beta)


def eval_share(share: KeyShare, x: GroupElement) -> GroupElement:
    return x.exp(share.value)


def combine(responses: list[tuple[int, GroupElement]], t: int) -> GroupElement:
    """Product of y_i^lambda_i over a t-subset; equals x^k when y_i = x^(k_i)."""
    if len(responses) != t:
        raise WrongResponseCount(f"need exactly {t} responses, got {len(responses)}")
    backend = responses[0][1].backend
    # token indices are another party's input; only their residues are points
    indices = [i % backend.q for i, _ in responses]
    if 0 in indices or len(set(indices)) != len(indices):
        raise DuplicateIndex(f"indices {indices} mod q: not distinct nonzero")
    lam = lagrange_at_zero(indices, backend)
    acc = backend.identity
    for i, (_, y) in zip(indices, responses):
        acc = acc.mul(y.exp(lam[i]))
    return acc


def unblind(y: GroupElement, beta: Scalar) -> GroupElement:
    if beta.value == 0:
        raise NonInvertibleBlind("blinding factor must be nonzero")
    return y.exp(beta.inverse())


def doprf_direct(s: bytes, k: Scalar) -> GroupElement:
    """The keyed hash M(s)^k computed in one place; the oracle for the pipeline."""
    return hash_to_group(s, k.backend).exp(k)


def random_blinding(backend: GroupBackend, rng) -> Scalar:
    return backend.random_nonzero_scalar(rng)
