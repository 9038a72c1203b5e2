"""Exact truncated power series over the rationals, and the generating
function identities checked with them.

The generating function of the 2 x n break counts, scaled by odd
factorials, satisfies a Riccati equation; the standard log-derivative
substitution turns that into a second-order linear ODE whose solution is a
hypergeometric series.  The hypergeometric parameters are irrational, but
rearranging its coefficients gives an equivalent all-rational series, so
every identity here is checked with exact Fractions -- zero means zero, no
tolerances anywhere.  Each residual is computed coefficient by coefficient
from the formula its equation gives at X^k, with at most one truncated
product of series.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .chocolate import ChocolateTable, chocolate2


@dataclass(frozen=True)
class RationalSeries:
    """Power series truncated at a fixed order, coefficients 0..order.

    Coefficients beyond the order are unknown, never assumed zero: a
    product discards any terms above the truncation order and insists both
    operands carry the same order, so that it never silently pretends to
    more precision than it has.  The product works over a common denominator,
    one integer convolution and one Fraction per output coefficient.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a series needs at least the constant term")
        object.__setattr__(
            self, "coeffs", tuple(Fraction(c) for c in self.coeffs)
        )

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k]

    def __mul__(self, other: "RationalSeries") -> "RationalSeries":
        if self.order != other.order:
            raise ValueError(
                f"operands must share a truncation order, got {self.order} and {other.order}"
            )
        da = math.lcm(*(c.denominator for c in self.coeffs))
        db = math.lcm(*(c.denominator for c in other.coeffs))
        a = [c.numerator * (da // c.denominator) for c in self.coeffs]
        b = [c.numerator * (db // c.denominator) for c in other.coeffs]
        return RationalSeries(tuple(
            Fraction(sum(map(operator.mul, a[:k + 1], b[k::-1])), da * db)
            for k in range(len(a))
        ))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def first_nonzero(self) -> int | None:
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return k
        return None


def hyper_numerators(n_max: int) -> list[int]:
    """The exact signed integers prod_{i<=n} ((4i-5)^2 - 5) for n = 1..n_max:
    the numerators of the rearranged hypergeometric series coefficients."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    out = []
    x = 1
    for i in range(1, n_max + 1):
        x *= (4 * i - 5) ** 2 - 5
        out.append(x)
    return out


def chocolate2_gf(order: int) -> RationalSeries:
    """Generating function of the 2 x n break counts: coefficient of X^n is
    the count divided by (2n-1)!, constant term zero."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    table = ChocolateTable()
    chocolate2(order, table)  # fill 1..order in one pass
    coeffs = [Fraction(0)]
    for n in range(1, order + 1):
        coeffs.append(Fraction(chocolate2(n, table), math.factorial(2 * n - 1)))
    return RationalSeries(tuple(coeffs))


def hypergeom_series(order: int) -> RationalSeries:
    """The all-rational rearrangement of the hypergeometric solution of the
    linear ODE: coefficient of X^n is numerator_n / (4^n (2n)!), with the
    empty product giving constant term 1."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    nums = hyper_numerators(order)
    coeffs = [Fraction(1)]
    for n in range(1, order + 1):
        coeffs.append(Fraction(nums[n - 1], 4**n * math.factorial(2 * n)))
    return RationalSeries(tuple(coeffs))


def riccati_residual_of(f: RationalSeries) -> RationalSeries:
    """Residual of the Riccati equation f' = 1/(2(1-X)) + f/(2X) + f^2/(2X)
    through order N-1, where N is f's truncation order.  Both divisions by X
    are genuine downshifts because f has no constant term, so the residual at
    X^k is ((2k+1) f_{k+1} - 1 - (f^2)_{k+1}) / 2."""
    if f.order < 3:
        raise ValueError("need order >= 3 to see the equation act")
    if f[0] != 0:
        raise ValueError("cannot divide by X: nonzero constant term")
    f2 = f * f
    return RationalSeries(tuple(
        ((2 * k + 1) * f[k + 1] - 1 - f2[k + 1]) / 2 for k in range(f.order)
    ))


def riccati_residual(order: int) -> RationalSeries:
    """Riccati residual for the actual generating function; identically zero
    when the underlying counts are right."""
    if order < 3:
        raise ValueError(f"order must be >= 3, got {order}")
    return riccati_residual_of(chocolate2_gf(order))


def log_derivative_residual_of(f: RationalSeries, u: RationalSeries) -> RationalSeries:
    """Residual of 2X u' + f u = 0 through order N, the product form of
    "f is -2X times the log-derivative of u" (no division by u needed); at
    X^k it is 2k u_k + (f u)_k."""
    if f.order != u.order:
        raise ValueError("f and u must share a truncation order")
    fu = f * u
    return RationalSeries(tuple(2 * k * u[k] + fu[k] for k in range(u.order + 1)))


def verify_log_derivative(order: int) -> tuple[bool, RationalSeries]:
    """Check that the generating function equals -2X u'/u for the
    hypergeometric series u, through the given order."""
    if order < 3:
        raise ValueError(f"order must be >= 3, got {order}")
    residual = log_derivative_residual_of(
        chocolate2_gf(order), hypergeom_series(order)
    )
    return residual.is_zero(), residual


def linear_ode_residual_of(u: RationalSeries) -> RationalSeries:
    """Residual of the cleared-denominator linear ODE
    4X(1-X) u'' + (2-2X) u' + u = 0 through order N-1; collecting the terms
    at X^k gives 2(k+1)(2k+1) u_{k+1} + (1 + 2k - 4k^2) u_k."""
    if u.order < 4:
        raise ValueError("need order >= 4 to see the equation act")
    return RationalSeries(tuple(
        2 * (k + 1) * (2 * k + 1) * u[k + 1] + (1 + 2 * k - 4 * k * k) * u[k]
        for k in range(u.order)
    ))


def verify_linear_ode(order: int) -> bool:
    """Check that the rearranged hypergeometric series satisfies the linear
    ODE through the given order."""
    if order < 4:
        raise ValueError(f"order must be >= 4, got {order}")
    return linear_ode_residual_of(hypergeom_series(order)).is_zero()
