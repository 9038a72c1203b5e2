"""Tests for the exact integer utilities."""

import math
import random

import numpy as np
import pytest

import chocnum.arith as arith_mod
from chocnum.arith import (
    MR_DETERMINISTIC_BOUND,
    TRIAL_BOUND,
    CofactorStatus,
    Factorization,
    binomial,
    divides_factorial,
    factor,
    is_prime,
    nu_p,
)
from chocnum.chocolate import ChocolateTable, chocolate2, chocolate_number

from shared import lowest_digit_limit, plain_primes


@pytest.mark.parametrize(
    "n,k,expected",
    [(4, 2, 6), (6, -1, 0), (6, 7, 0), (0, 0, 1), (10, 10, 1)],
)
def test_binomial_examples(n, k, expected):
    assert binomial(n, k) == expected


@pytest.mark.parametrize("value,p,expected", [(4, 2, 2), (1, 7, 0), (92800, 2, 7)])
def test_nu_p_examples(value, p, expected):
    assert nu_p(value, p) == expected


def test_nu_p_extracts_exact_power():
    rng = random.Random(7)
    values = [1, 2, 6, 24, 92800, 9408, 10**9] + [rng.randrange(1, 10**12) for _ in range(50)]
    for v in values:
        for p in (2, 3, 5, 7, 11, 13):
            e = nu_p(v, p)
            assert v % p**e == 0
            assert v % p ** (e + 1) != 0


def test_factor_examples():
    f = factor(1712)
    assert f.factors == ((2, 4), (107, 1))
    assert f.cofactor == 1 and f.cofactor_status is CofactorStatus.UNIT
    assert str(f) == "2^4 * 107"

    f1 = factor(1)
    assert f1.factors == () and f1.cofactor == 1
    assert str(f1) == "1"

    assert factor(9408).factors == ((2, 6), (3, 1), (7, 2))


def test_factor_roundtrip_identity():
    rng = random.Random(11)
    values = [1, 2, 97, 2**20, 10**12, 999999937] + [
        rng.randrange(1, 10**12) for _ in range(60)
    ]
    for v in values:
        f = factor(v)
        assert f.is_complete()
        assert math.prod(p**e for p, e in f.factors) * f.cofactor == v
        primes = [p for p, _ in f.factors]
        assert primes == sorted(primes) and len(set(primes)) == len(primes)
        assert all(e >= 1 for _, e in f.factors)
        assert all(is_prime(p) for p in primes)


def odd_divisor_factor(value):
    """factor as it was before it divided by primes only: 2, then every odd
    d up to TRIAL_BOUND while d*d <= rem, then the same classification."""
    factors = []
    rem = value
    d = 2
    while d <= TRIAL_BOUND and d * d <= rem:
        if rem % d == 0:
            e = 0
            while rem % d == 0:
                rem //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if rem == 1:
        return Factorization(tuple(factors))
    prime = arith_mod._miller_rabin(rem)
    if prime and rem < MR_DETERMINISTIC_BOUND:
        factors.append((rem, 1))
        return Factorization(tuple(factors))
    status = CofactorStatus.PROBABLE_PRIME if prime else CofactorStatus.COMPOSITE_UNRESOLVED
    return Factorization(tuple(factors), rem, status)


def test_factor_by_primes_matches_every_odd_divisor():
    # B_1..B_40, every bar up to 6 x 8, primes at and beyond the trial
    # bound, whose products sieve every window, and random values
    table = ChocolateTable()
    values = {chocolate2(n, table) for n in range(1, 41)}
    values |= {chocolate_number(m, n, table) for m in range(1, 7) for n in range(m, 9)}
    rng = random.Random(31)
    values |= {rng.randrange(1, 10**12) for _ in range(12)}
    values |= {1000003 * 1000033, 999983**2, 999983 * 1000003}
    for v in sorted(values):
        assert factor(v) == odd_divisor_factor(v), v
    # 999983^2 sieved every window: the primes kept are those of a plain sieve
    assert list(arith_mod._trial_primes) == plain_primes(2, TRIAL_BOUND + 1)


@pytest.mark.parametrize("low,high", [
    (2**26 - 2**16, 2**26), (2**26 - 2**17, 2**26 - 2**16), (2**13, 2**13 + 5000),
    (2**13, 2**14), (2**13, 2**13), (3, 2**14),
])
def test_prime_windows_match_a_plain_sieve(low, high):
    assert arith_mod.primes_between(low, high) == plain_primes(low, high)


def test_a_first_window_below_2_26_sieves_the_trial_primes_it_needs(fresh_python):
    # a fresh interpreter has sieved the trial primes below 2**10 only, and
    # no factor call has grown them to the 2**13 this window needs
    probe = ("import chocnum.arith as a; before = a._trial_sieved; "
             "window = a.primes_between(2**26 - 2**16, 2**26); "
             "print(before, a._trial_sieved, *window)")
    proc = fresh_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    before, after, *window = map(int, proc.stdout.split())
    assert before < 2**13 < after
    assert window == plain_primes(2**26 - 2**16, 2**26)


def test_a_cofactor_past_the_digit_limit_prints_in_full():
    cofactor = 10**5000 + 1  # 5001 digits, composite (11 divides it)
    f = Factorization(((2, 3),), cofactor, CofactorStatus.COMPOSITE_UNRESOLVED)
    with lowest_digit_limit():
        assert str(f) == f"2^3 * 1{'0' * 4999}1?"


def test_factor_flags_unresolvable_cofactor():
    p, q = 1000003, 1000033
    f = factor(p * q)  # both primes exceed the trial bound
    assert f.factors == ()
    assert f.cofactor == p * q
    assert f.cofactor_status is CofactorStatus.COMPOSITE_UNRESOLVED
    assert math.prod(p**e for p, e in f.factors) * f.cofactor == p * q


def test_factor_certifies_a_cofactor_by_miller_rabin():
    # 1000000000039 is prime and above TRIAL_BOUND^2, so only Miller-Rabin
    # can certify it
    f = factor(6 * 1000000000039)
    assert f.is_complete()
    assert str(f) == "2 * 3 * 1000000000039"


def test_factor_flags_probable_prime_cofactor():
    m89 = 2**89 - 1  # prime, but beyond the deterministic witness range
    f = factor(m89)
    assert f.cofactor == m89
    assert f.cofactor_status is CofactorStatus.PROBABLE_PRIME


def test_is_prime_matches_sieve():
    primes = set(plain_primes(2, 10000))
    for n in range(10000):
        assert is_prime(n) == (n in primes)


def test_divides_factorial_examples():
    assert divides_factorial(11, 10) is False
    assert divides_factorial(4, 4) is True
    # independent route: the valuation of 24! at 2 really is 22
    assert nu_p(math.factorial(24), 2) == 22
    assert divides_factorial(2**13, 24) is True
    assert divides_factorial(2**22, 24) is True
    assert divides_factorial(2**23, 24) is False


def test_divides_factorial_agrees_with_direct_division():
    for N in list(range(0, 26)) + [50, 100, 200]:
        fact = math.factorial(N)
        for k in range(1, 10001, 7):
            assert divides_factorial(k, N) == (fact % k == 0), (k, N)


def test_numpy_integers_act_as_python_ints():
    # the three-argument pow of Miller-Rabin and int.bit_length need ints
    big = 10**12 + 39
    assert is_prime(np.int64(1_000_003)) is True
    assert factor(np.int64(big)) == factor(big) == Factorization(((big, 1),))
    assert type(factor(np.int64(big)).factors[0][0]) is int
    got = nu_p(np.int64(92800), np.int64(2))
    assert got == 7 and type(got) is int
    assert nu_p(96, np.int64(1_000_003)) == 0
    assert divides_factorial(12, np.int64(5)) is True
    assert divides_factorial(np.int64(7), 6) is False
