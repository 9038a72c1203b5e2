"""References and one helper shared by the test modules, imported like
``reference_values``.  Each reference is written from its definition alone
and shares no code with the package."""

import math
import sys
from contextlib import contextmanager


def plain_primes(low, high):
    """The primes in [low, high), low >= 2, by crossing out the multiples
    of every d with d*d < high."""
    window = bytearray([1]) * (high - low)
    for d in range(2, math.isqrt(high - 1) + 1):
        first = max(d * d, -(-low // d) * d) - low
        window[first::d] = bytes(len(range(first, high - low, d)))
    return [q for q, prime in zip(range(low, high), window) if prime]


_B = [None, 1]  # _B[n] = B_n, extended by every_term_chocolate2


def every_term_chocolate2(n_max):
    """B_1, ..., B_n_max from B_n = (2n-2)! + sum of C(2n-2, 2i-1) B_i B_{n-i}
    over every i from 1 to n-1, each weight from math.comb: a reference for
    the half sum and the walked weights of chocolate2, and for every residue
    of it.  Each B_n is computed once per test run."""
    for n in range(len(_B), n_max + 1):
        r = 2 * n - 2
        terms = sum(math.comb(r, 2 * i - 1) * _B[i] * _B[n - i] for i in range(1, n))
        _B.append(math.factorial(r) + terms)
    return _B[1 : n_max + 1]


@contextmanager
def lowest_digit_limit():
    """Python's lowest int <-> str digit limit, 640, where the limit exists."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
        assert sys.get_int_max_str_digits() == 640  # the caller's limit is back
    finally:
        sys.set_int_max_str_digits(saved)
