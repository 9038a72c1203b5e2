"""Exact integer utilities shared by every module.

Everything here is pure and arbitrary-precision: binomials, p-adic
valuations, trial-division factoring with a deterministic Miller-Rabin
cofactor check, and a factorial-divisibility test that never builds the
factorial.  The only state is the primes sieved so far, which trial
division and ``primes_between`` share.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import compress, islice

from . import unlimited_int_digits

# Fixed witness set is a deterministic primality test below this bound.
MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

TRIAL_BOUND = 10**6
_trial_primes = array("I", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])  # below _trial_sieved
_trial_sieved = 33


class CofactorStatus(Enum):
    UNIT = "unit"
    PROBABLE_PRIME = "probable_prime"
    COMPOSITE_UNRESOLVED = "composite_unresolved"


@dataclass(frozen=True)
class Factorization:
    """Prime factorization plus an explicit leftover cofactor.

    ``factors`` holds (prime, exponent) pairs sorted strictly increasing by
    prime; every listed prime is certified for its size.  ``cofactor`` is 1
    when the value was fully factored, otherwise the unfactored remainder,
    classified by ``cofactor_status``.
    """

    factors: tuple[tuple[int, int], ...]
    cofactor: int = 1
    cofactor_status: CofactorStatus = CofactorStatus.UNIT

    def is_complete(self) -> bool:
        return self.cofactor == 1

    def __str__(self) -> str:
        parts = [f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors]
        if self.cofactor != 1:
            tag = "?" if self.cofactor_status is CofactorStatus.COMPOSITE_UNRESOLVED else "(prp)"
            with unlimited_int_digits():  # a cofactor of any size prints in full
                parts.append(f"{self.cofactor}{tag}")
        return " * ".join(parts) if parts else "1"


def binomial(n: int, k: int) -> int:
    """C(n, k) exactly, with the summation-friendly convention that any
    k outside [0, n] yields 0 rather than an error."""
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def nu_p(value: int, p: int) -> int:
    """Largest e with p^e dividing value.  value must be >= 1 (the valuation
    of 0 would be infinite) and p must be prime."""
    value, p = operator.index(value), operator.index(p)
    if value < 1:
        raise ValueError(f"nu_p requires value >= 1, got {value}")
    if not is_prime(p):
        raise ValueError(f"nu_p requires a prime p, got {p}")
    e = 0
    while value % p == 0:
        value //= p
        e += 1
    return e


def _miller_rabin(n: int) -> bool:
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MR_WITNESSES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Primality via the fixed Miller-Rabin witness set.

    Deterministic for n below MR_DETERMINISTIC_BOUND; above that no
    counterexamples are known but the answer is only "probably prime".
    """
    n = operator.index(n)
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0:
            return n == p
    return _miller_rabin(n)


def factor(value: int) -> Factorization:
    """Trial-divide out all primes <= TRIAL_BOUND (10^6), then classify what
    is left by one Miller-Rabin test: certified prime below its deterministic
    range, flagged probable prime at or above it rather than mis-certified,
    and flagged composite otherwise.  A remainder left by the p*p > rem exit
    is prime and below the range, so the same test certifies it.  The primes
    come from ``_sieve_window`` as far as the loop reaches."""
    value = operator.index(value)
    if value < 1:
        raise ValueError(f"factor requires value >= 1, got {value}")
    factors: list[tuple[int, int]] = []
    rem = value
    last = _trial_primes[-1]
    for p in _trial_primes:  # runs on into each window sieved below
        if p * p > rem:
            break
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            factors.append((p, e))
        if p == last and _sieve_window():
            last = _trial_primes[-1]
    if rem == 1:
        return Factorization(tuple(factors))
    prime = _miller_rabin(rem)
    if prime and rem < MR_DETERMINISTIC_BOUND:
        factors.append((rem, 1))
        return Factorization(tuple(factors))
    status = CofactorStatus.PROBABLE_PRIME if prime else CofactorStatus.COMPOSITE_UNRESOLVED
    return Factorization(tuple(factors), rem, status)


def _sieve_window() -> bool:
    """Append the primes of the next window [low, high) to ``_trial_primes``;
    False once past TRIAL_BOUND.  The first window ends at 2**10 and each
    next one is at most as long as the span below it, so the odd primes
    found so far sieve it; it is at most 2**17 long."""
    global _trial_sieved
    low = _trial_sieved
    if low > TRIAL_BOUND:
        return False
    high = min(max(2 * low, 1 << 10) + 1, low + (1 << 17), TRIAL_BOUND + 1)
    _trial_primes.extend(primes_between(low, high))
    _trial_sieved = high
    return True


def primes_between(low: int, high: int) -> list[int]:
    """The primes in [low, high), ascending, for 3 <= low and high <= 10**12:
    a sieve of the odd numbers by the odd trial primes whose squares lie
    below high, which ``_sieve_window`` extends first as far as that needs.
    Trial division and the residue fill's primes share it."""
    while _trial_sieved ** 2 < high and _sieve_window():
        pass
    odd = range(low | 1, high, 2)
    sieve = bytearray([1]) * len(odd)  # sieve[i]: whether odd[i] is prime
    for p in islice(_trial_primes, 1, None):
        if p * p >= high:
            break
        # the first odd multiple of p that is at least p*p and low
        i = ((max(p, -(-odd.start // p)) | 1) * p - odd.start) // 2
        sieve[i::p] = bytes(len(range(i, len(sieve), p)))
    return list(compress(odd, sieve))


_sieve_window()  # the primes below 2**10, which most small values need


def divides_factorial(k: int, N: int) -> bool:
    """Whether k divides N!, decided from the factorization of k and
    Legendre's formula nu_p(N!) = sum_{i >= 1} floor(N / p^i), whose terms
    vanish once p^i > N -- the factorial itself is never computed.

    Fails if k cannot be fully factored (unresolved cofactor).
    """
    k, N = operator.index(k), operator.index(N)
    if k < 1:
        raise ValueError("k must be >= 1")
    if N < 0:
        raise ValueError("N must be >= 0")
    f = factor(k)
    if not f.is_complete():
        raise ValueError(
            f"cannot decide divisibility: {k} has unresolved cofactor {f.cofactor}"
        )
    return all(sum(N // p**i for i in range(1, N.bit_length() + 1)) >= e for p, e in f.factors)
