"""Blinding, Shamir sharing, Lagrange-in-the-exponent combination."""

import itertools
import random

import pytest

from dnascreen.crypto import TEST_BACKEND, hash_to_group
from dnascreen.doprf import (
    blind,
    combine,
    doprf_direct,
    eval_share,
    KeyShare,
    lagrange_at_zero,
    share_key,
    shares_from_coeffs,
    unblind,
)
from dnascreen.errors import (
    DuplicateIndex,
    InvalidThreshold,
    NonInvertibleBlind,
    WrongResponseCount,
)

B = TEST_BACKEND


def s(v):
    return B.scalar(v)


def test_share_key_degenerate_single():
    shares = share_key(s(7), 1, 1, random.Random(0))
    assert [(sh.index, sh.value.value) for sh in shares] == [(1, 7)]


def test_shares_from_forced_coefficients():
    # f(x) = 7 + 5x mod 11 -> hand-evaluated oracle
    shares = shares_from_coeffs([s(7), s(5)], 3)
    assert [(sh.index, sh.value.value) for sh in shares] == [(1, 1), (2, 6), (3, 0)]


def test_lagrange_reconstruction_by_hand():
    lam = lagrange_at_zero([1, 2], B)
    assert lam[1].value == 2 and lam[2].value == 10
    assert (1 * 2 + 6 * 10) % 11 == 7


def test_share_key_threshold_validation():
    rng = random.Random(0)
    for t, n in [(0, 3), (4, 3), (1, 11), (2, 30)]:
        with pytest.raises(InvalidThreshold):
            share_key(s(7), n, t, rng)


def test_share_reconstruction_scalar_domain():
    rng = random.Random(5)
    for t, n in [(1, 1), (2, 3), (3, 5)]:
        k = B.random_scalar(rng)
        shares = share_key(k, n, t, rng)
        for subset in itertools.combinations(shares, t):
            lam = lagrange_at_zero([sh.index for sh in subset], B)
            acc = 0
            for sh in subset:
                acc = (acc + lam[sh.index].value * sh.value.value) % B.q
            assert acc == k.value


def test_blind_identity_and_known_value():
    h = B.element(4)
    assert blind(h, s(1)) == h
    assert blind(h, s(3)).value == pow(4, 3, 23) == 18


def test_blind_unblind_roundtrip():
    rng = random.Random(9)
    for _ in range(100):
        h = hash_to_group(rng.randbytes(8), B)
        beta = B.random_nonzero_scalar(rng)
        assert unblind(blind(h, beta), beta) == h


def test_blind_rejects_zero():
    with pytest.raises(NonInvertibleBlind):
        blind(B.element(4), s(0))
    with pytest.raises(NonInvertibleBlind):
        unblind(B.element(4), s(0))


def test_blind_privacy_exhaustive():
    # for fixed non-identity h, h^beta over beta=1..q-1 covers each
    # non-identity element exactly once
    h = B.element(4)
    values = [blind(h, s(b)).value for b in range(1, B.q)]
    assert sorted(values) == sorted(
        e.value for e in B.all_elements() if not e.is_identity())


def test_share_hiding_exhaustive():
    # given one share of a (t=2) sharing, every candidate secret is consistent
    for i in range(1, 4):
        for y in range(B.q):
            for k_prime in range(B.q):
                # find coefficient a with k' + a*i = y (mod 11)
                a = ((y - k_prime) * pow(i, -1, B.q)) % B.q
                sh = shares_from_coeffs([s(k_prime), s(a)], i)[i - 1]
                assert sh.value.value == y


def test_eval_share_basics():
    x = B.generator
    assert eval_share(KeyShare(1, s(0)), x).is_identity()
    assert eval_share(KeyShare(1, s(1)), x).value == 2
    assert eval_share(KeyShare(2, s(6)), x).value == pow(2, 6, 23) == 18


def test_combine_single_share():
    assert combine([(1, B.generator)], 1).value == 2


def test_combine_worked_example():
    # shares of k=7 under f(x)=7+5x: (1,1),(2,6); x = 2
    got = combine([(1, B.element(2)), (2, B.element(18))], 2)
    assert got.value == (pow(2, 2, 23) * pow(18, 10, 23)) % 23 == 13
    assert got.value == pow(2, 7, 23)


def test_combine_other_subset_same_answer():
    # indices {2,3} of the same sharing: y2 = 2^6 = 18, y3 = 2^0 = 1
    got = combine([(2, B.element(18)), (3, B.element(1))], 2)
    assert got.value == 13


def test_combine_rejects_bad_inputs():
    with pytest.raises(WrongResponseCount):
        combine([(1, B.element(2))], 2)
    with pytest.raises(DuplicateIndex):
        combine([(1, B.element(2)), (1, B.element(4))], 2)


@pytest.mark.parametrize("indices", [(1, 12), (0, 2), (11, 2)],
                         ids=["equal-mod-q", "zero", "zero-mod-q"])
def test_combine_rejects_indices_that_are_not_distinct_nonzero_mod_q(indices):
    # a token's share index is another party's input, and only its residue
    # mod q (11 on the test group) is a point of the sharing
    with pytest.raises(DuplicateIndex):
        combine([(indices[0], B.element(2)), (indices[1], B.element(18))], 2)


def test_combine_reads_indices_mod_q():
    # index 13 is the point 2 of the worked example
    assert combine([(1, B.element(2)), (13, B.element(18))], 2).value == 13


def test_doprf_direct_trivial_keys():
    assert doprf_direct(b"seq", s(1)) == hash_to_group(b"seq", B)
    assert doprf_direct(b"seq", s(0)).is_identity()


def test_pipeline_matches_direct_oracle():
    rng = random.Random(13)
    k = s(7)
    shares = share_key(k, 3, 2, rng)
    for _ in range(50):
        seq = rng.randbytes(10)
        beta = B.random_nonzero_scalar(rng)
        blinded = blind(hash_to_group(seq, B), beta)
        responses = [(sh.index, eval_share(sh, blinded)) for sh in shares[:2]]
        assert unblind(combine(responses, 2), beta) == doprf_direct(seq, k)


def test_oracle_equivalence_all_subsets():
    # acceptance-grade sweep: (t,n) in {(1,1),(2,3),(3,5)}, all t-subsets,
    # >= 100 random sequences, exact equality
    rng = random.Random(17)
    for t, n in [(1, 1), (2, 3), (3, 5)]:
        k = B.random_scalar(rng)
        shares = share_key(k, n, t, rng)
        for _ in range(100):
            seq = rng.randbytes(8)
            beta = B.random_nonzero_scalar(rng)
            blinded = blind(hash_to_group(seq, B), beta)
            expected = doprf_direct(seq, k)
            for subset in itertools.combinations(shares, t):
                responses = [(sh.index, eval_share(sh, blinded))
                             for sh in subset]
                assert unblind(combine(responses, t), beta) == expected

