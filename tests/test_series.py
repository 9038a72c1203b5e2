"""Tests for the exact rational series engine and the identity checks."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from chocnum.modular import hyper_numerators_mod
from chocnum.series import (
    RationalSeries,
    chocolate2_gf,
    hyper_numerators,
    hypergeom_series,
    linear_ode_residual_of,
    log_derivative_residual_of,
    riccati_residual,
    riccati_residual_of,
    verify_linear_ode,
    verify_log_derivative,
)

from reference_values import HYPER_NUMERATOR_PREFIX


def _perturb(series: RationalSeries, k: int, value) -> RationalSeries:
    coeffs = list(series.coeffs)
    coeffs[k] = Fraction(value)
    return replace(series, coeffs=tuple(coeffs))


# ------------------------------------------------------------- ring plumbing


def test_construction_and_order():
    s = RationalSeries((1, 2, 3))
    assert s.order == 2 and s[1] == 2
    with pytest.raises(ValueError):
        RationalSeries(())


def test_product_of_conjugates():
    one_plus = RationalSeries((1, 1, 0, 0))
    one_minus = RationalSeries((1, -1, 0, 0))
    assert (one_plus * one_minus).coeffs == (1, 0, -1, 0)


def test_ring_laws_on_random_operands():
    rng = random.Random(12)

    def rand_series(order=6):
        return RationalSeries(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1))
        )

    for _ in range(25):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_truncation_commutes_with_multiplication():
    rng = random.Random(3)
    for _ in range(10):
        a = RationalSeries(
            tuple(Fraction(rng.randint(-5, 5)) for _ in range(9))
        )
        b = RationalSeries(
            tuple(Fraction(rng.randint(-5, 5)) for _ in range(9))
        )
        low = RationalSeries(a.coeffs[:6]) * RationalSeries(b.coeffs[:6])
        assert (a * b).coeffs[:6] == low.coeffs


def test_product_rejects_mismatched_orders():
    with pytest.raises(ValueError, match="operands must share a truncation order"):
        RationalSeries((0, 1, 2, 0)) * RationalSeries((1, 0, 0, 0, 0, 0))


def _schoolbook_product(x: RationalSeries, y: RationalSeries) -> tuple[Fraction, ...]:
    # reference for the common-denominator product: Fractions added one
    # term at a time, each addition normalised on its own
    out = [Fraction(0)] * (x.order + 1)
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs[: x.order + 1 - i]):
            out[i + j] += a * b
    return tuple(out)


def test_product_matches_schoolbook_reference():
    coprime = RationalSeries(_fractions("0", "-3/7", "0", "5/11", "-1/13", "0", "2/3"))
    other = RationalSeries(_fractions("-1/2", "0", "4/5", "-9/17", "0", "1/19", "-7"))
    assert (coprime * other).coeffs == _schoolbook_product(coprime, other)
    assert (other * coprime).coeffs == _schoolbook_product(other, coprime)
    rng = random.Random(7)
    for _ in range(20):
        x, y = (
            RationalSeries(tuple(
                Fraction(rng.randint(-9, 9), rng.randint(1, 40)) for _ in range(12)
            ))
            for _ in range(2)
        )
        assert (x * y).coeffs == _schoolbook_product(x, y)


def test_product_matches_schoolbook_reference_at_benchmark_size():
    f, u = chocolate2_gf(150), hypergeom_series(150)
    exact = (f * u).coeffs
    assert exact == _schoolbook_product(f, u)
    broken = _perturb(f, 75, f[75] + Fraction(1, 3))
    perturbed = (broken * u).coeffs
    assert perturbed == _schoolbook_product(broken, u)
    assert perturbed[:75] == exact[:75] and perturbed[75] == exact[75] + Fraction(1, 3)


# ------------------------------------------------------- the actual series


def test_chocolate2_gf_coefficients():
    f = chocolate2_gf(3)
    assert f[0] == 0
    assert f[1] == 1
    assert f[2] == Fraction(2, 3)
    assert f[3] == Fraction(7, 15)


def test_hyper_numerators_prefix():
    assert hyper_numerators(5) == HYPER_NUMERATOR_PREFIX


def test_hypergeom_series_coefficients():
    u = hypergeom_series(2)
    assert u[0] == 1
    assert u[1] == Fraction(-1, 2)
    assert u[2] == Fraction(-1, 24)


def test_hyper_numerators_reduce_to_modular_route():
    nums = hyper_numerators(300)
    for m in (3, 5, 7, 9, 12, 100, 101):
        assert [x % m for x in nums] == hyper_numerators_mod(300, m)


# ------------------------------------------------------------ the identities


def _fractions(*values):
    return tuple(Fraction(v) for v in values)


def test_perturbed_residuals_are_pinned():
    # whole residuals, not just where they start: a formula off by a
    # constant factor changes them even where the first nonzero order stays
    f = chocolate2_gf(6)
    broken = _perturb(f, 2, f[2] + Fraction(5, math.factorial(3)))
    assert riccati_residual_of(broken).coeffs == _fractions(
        0, "5/4", "-5/6", "-65/72", "-7/18", "-107/378"
    )
    f = chocolate2_gf(8)
    u = hypergeom_series(8)
    broken = _perturb(u, 2, u[2] + 1)
    assert log_derivative_residual_of(f, broken).coeffs == _fractions(
        0, 0, 4, 1, "2/3", "7/15", "107/315", "145/567", "2812/14175"
    )
    broken = _perturb(u, 1, u[1] + 1)
    assert linear_ode_residual_of(broken).coeffs == _fractions(2, -1, 0, 0, 0, 0, 0, 0)


@pytest.mark.parametrize("order", range(3, 31))
def test_identities_hold_at_every_order_up_to_thirty(order):
    residual = riccati_residual(order)
    assert residual.is_zero() and residual.order == order - 1
    holds, residual = verify_log_derivative(order)
    assert holds and residual.is_zero() and residual.order == order
    if order >= 4:
        assert verify_linear_ode(order)


def test_identity_checks_validate_order():
    with pytest.raises(ValueError):
        riccati_residual(2)
    with pytest.raises(ValueError):
        verify_linear_ode(3)
    with pytest.raises(ValueError):
        verify_log_derivative(2)
    with pytest.raises(ValueError):
        hypergeom_series(0)
    with pytest.raises(ValueError):
        chocolate2_gf(0)


def test_riccati_rejects_a_nonzero_constant_term():
    f = _perturb(chocolate2_gf(6), 0, 1)
    with pytest.raises(ValueError, match="cannot divide by X: nonzero constant term"):
        riccati_residual_of(f)


def test_log_derivative_rejects_mismatched_orders():
    with pytest.raises(ValueError, match="must share a truncation order"):
        log_derivative_residual_of(chocolate2_gf(6), hypergeom_series(7))


def test_a_zero_series_has_no_first_nonzero_order():
    zero = RationalSeries((0, 0, 0))
    assert zero.is_zero() and zero.first_nonzero() is None
