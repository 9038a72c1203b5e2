"""Exact truncated power series over the rationals, and the generating
function identities checked with them.

The generating function of the 2 x n break counts, scaled by odd
factorials, satisfies a Riccati equation; the standard log-derivative
substitution turns that into a second-order linear ODE whose solution is a
hypergeometric series.  The hypergeometric parameters are irrational, but
rearranging its coefficients gives an equivalent all-rational series, so
every identity here is checked coefficient-by-coefficient with exact
Fractions -- zero means zero, no tolerances anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .chocolate import ChocolateTable, chocolate2


@dataclass(frozen=True)
class RationalSeries:
    """Power series truncated at a fixed order, coefficients 0..order.

    Coefficients beyond the order are unknown, never assumed zero:
    arithmetic discards any product terms above the truncation order, and
    binary operations insist both operands carry the same order so that a
    result never silently pretends to more precision than it has.
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

    def _check_order(self, other: "RationalSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"operands must share a truncation order, got {self.order} and {other.order}"
            )

    def __add__(self, other: "RationalSeries") -> "RationalSeries":
        self._check_order(other)
        return RationalSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "RationalSeries") -> "RationalSeries":
        self._check_order(other)
        return RationalSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "RationalSeries") -> "RationalSeries":
        self._check_order(other)
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return RationalSeries(tuple(out))

    def scalar_mul(self, c) -> "RationalSeries":
        c = Fraction(c)
        return RationalSeries(tuple(a * c for a in self.coeffs))

    def differentiate(self) -> "RationalSeries":
        """Termwise derivative; one order of precision is consumed."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 series")
        return RationalSeries(
            tuple((k + 1) * self.coeffs[k + 1] for k in range(self.order))
        )

    def divide_by_x(self) -> "RationalSeries":
        """Coefficient downshift.  Only legal when the constant term is zero,
        which is asserted rather than assumed."""
        if self.coeffs[0] != 0:
            raise ValueError("cannot divide by X: nonzero constant term")
        if self.order == 0:
            raise ValueError("cannot divide an order-0 series by X")
        return RationalSeries(self.coeffs[1:])

    def times_x(self) -> "RationalSeries":
        """Coefficient upshift; gains one order since nothing is discarded."""
        return RationalSeries((Fraction(0),) + self.coeffs)

    def truncate(self, order: int) -> "RationalSeries":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return RationalSeries(self.coeffs[: order + 1])

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


def chocolate2_gf(order: int, table: ChocolateTable | None = None) -> RationalSeries:
    """Generating function of the 2 x n break counts: coefficient of X^n is
    the count divided by (2n-1)!, constant term zero."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if table is None:
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
    are genuine downshifts because f has no constant term."""
    if f.order < 3:
        raise ValueError("need order >= 3 to see the equation act")
    n = f.order
    f_prime = f.differentiate()                      # order n-1
    half_geometric = RationalSeries((Fraction(1, 2),) * n)  # 1/(2(1-X))
    f_shift = f.divide_by_x().scalar_mul(Fraction(1, 2))
    f2_shift = (f * f).divide_by_x().scalar_mul(Fraction(1, 2))
    return f_prime - half_geometric - f_shift - f2_shift


def riccati_residual(order: int, table: ChocolateTable | None = None) -> RationalSeries:
    """Riccati residual for the actual generating function; identically zero
    when the underlying counts are right."""
    return riccati_residual_of(chocolate2_gf(order, table))


def log_derivative_residual_of(f: RationalSeries, u: RationalSeries) -> RationalSeries:
    """Residual of 2X u' + f u = 0 through order N, the product form of
    "f is -2X times the log-derivative of u" (no division by u needed)."""
    if f.order != u.order:
        raise ValueError("f and u must share a truncation order")
    two_x_uprime = u.differentiate().times_x().scalar_mul(2)
    return two_x_uprime + f * u


def verify_log_derivative(
    order: int, table: ChocolateTable | None = None
) -> tuple[bool, RationalSeries]:
    """Check that the generating function equals -2X u'/u for the
    hypergeometric series u, through the given order."""
    if order < 3:
        raise ValueError(f"order must be >= 3, got {order}")
    residual = log_derivative_residual_of(
        chocolate2_gf(order, table), hypergeom_series(order)
    )
    return residual.is_zero(), residual


def linear_ode_residual_of(u: RationalSeries) -> RationalSeries:
    """Residual of the cleared-denominator linear ODE
    4X(1-X) u'' + (2-2X) u' + u = 0 through order N-1."""
    if u.order < 4:
        raise ValueError("need order >= 4 to see the equation act")
    n = u.order
    u1 = u.differentiate()            # order n-1
    u2 = u1.differentiate()           # order n-2
    t_x_u2 = u2.times_x().scalar_mul(4)                       # 4X u'', order n-1
    t_x2_u2 = u2.times_x().times_x().truncate(n - 1).scalar_mul(4)  # 4X^2 u''
    t_u1 = u1.scalar_mul(2)                                   # 2u', order n-1
    t_x_u1 = u1.times_x().truncate(n - 1).scalar_mul(2)       # 2X u'
    return t_x_u2 - t_x2_u2 + t_u1 - t_x_u1 + u.truncate(n - 1)


def verify_linear_ode(order: int) -> bool:
    """Check that the rearranged hypergeometric series satisfies the linear
    ODE through the given order."""
    if order < 4:
        raise ValueError(f"order must be >= 4, got {order}")
    return linear_ode_residual_of(hypergeom_series(order)).is_zero()
