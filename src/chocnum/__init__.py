"""Exact arithmetic for chocolate-bar break counts: the split recursion and
its brute-force oracle, the derived integer sequences, p-adic valuations and
factorizations, modular residue scans with eventual-period detection, and
exact rational power-series checks of the generating-function identities.
"""

from .arith import (
    CofactorStatus,
    Factorization,
    binomial,
    binomial_mod_prime,
    divides_factorial,
    factor,
    is_prime,
    nu_p,
    nu_p_factorial,
)
from .chocolate import (
    CacheFormatError,
    ChocolateTable,
    SequenceFrontierError,
    SequenceKind,
    SequenceSpec,
    chocolate2,
    chocolate_number,
    generate,
    load_cache,
    save_cache,
)
from .modular import (
    PeriodReport,
    ScanRecord,
    binom_sum_1_mod6,
    binom_sum_5_mod6,
    chocolate2_mod,
    chocolate2_mod_many,
    conjecture_scan,
    detect_eventual_period,
    hyper_numerators_mod,
    mod3_pattern_check,
    persistent_divisor_check,
    residue_kernel,
    zero_tail_prime,
)
from .oracle import count_sequences
from .series import (
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

__version__ = "0.1.0"
