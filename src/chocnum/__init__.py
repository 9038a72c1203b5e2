"""Exact arithmetic for chocolate-bar break counts: the split recursion and
its brute-force oracle, the derived integer sequences, p-adic valuations and
factorizations, modular residue scans with eventual-period detection, and
exact rational power-series checks of the generating-function identities.
Exact values print in full at any size: the modules that turn big
integers into decimal text do so under ``unlimited_int_digits``.  numpy
is loaded only with ``chocnum.fill``, and only through ``load_fill``.

``import chocnum`` loads no submodule.  Each public name is looked up in
its submodule on every access (PEP 562), which imports that submodule the
first time; nothing is copied into this namespace, so a name patched in its
submodule is what ``chocnum.<name>`` returns.
"""

import sys
from contextlib import contextmanager
from importlib import import_module

_EXPORTS = {
    "arith": ("CofactorStatus", "Factorization", "binomial", "divides_factorial", "factor",
              "is_prime", "nu_p"),
    "chocolate": ("CacheFormatError", "ChocolateTable", "SequenceFrontierError",
                  "SequenceKind", "SequenceSpec", "chocolate2", "chocolate_number",
                  "generate", "load_cache", "save_cache"),
    "modular": ("PeriodReport", "ScanRecord", "binom_sum_1_mod6", "binom_sum_5_mod6",
                "chocolate2_mod", "chocolate2_mod_many", "conjecture_scan",
                "detect_eventual_period", "hyper_numerators_mod", "mod3_pattern_check",
                "persistent_divisor_check", "residue_kernel", "zero_tail_prime"),
    "oracle": ("count_sequences",),
    "series": ("RationalSeries", "chocolate2_gf", "hyper_numerators", "hypergeom_series",
               "linear_ode_residual_of", "log_derivative_residual_of", "riccati_residual",
               "riccati_residual_of", "verify_linear_ode", "verify_log_derivative"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"

# frames of recursion headroom below which numpy's first import is not
# tried: it nested past the limit with 96 frames left and not with 100
# (numpy 2.4, Python 3.11), and one that fails part way can leave numpy's
# C core loaded once and unusable for the rest of the process
_IMPORT_HEADROOM = 300


@contextmanager
def unlimited_int_digits():
    """Lift Python's limit on int <-> decimal string conversion (4300 digits
    by default since 3.10.7) for the duration of the block, so exact values
    print and parse in full at any size.  The limit is process-wide; the
    caller's value is restored on exit.  Pythons without it are left alone."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def load_fill():
    """Import and return ``chocnum.fill``, the module of every int64 numpy
    kernel of both residue routes; the package loads it only through here.
    While numpy is not loaded, a caller with fewer than ``_IMPORT_HEADROOM``
    frames below the recursion limit gets RecursionError and nothing is
    imported, so numpy is never left half-loaded; an import that fails
    raises as it is."""
    if "numpy" not in sys.modules:
        depth, frame = 0, sys._getframe()
        while frame:
            depth, frame = depth + 1, frame.f_back
        if sys.getrecursionlimit() - depth < _IMPORT_HEADROOM:
            raise RecursionError(f"numpy's first import needs {_IMPORT_HEADROOM} frames "
                                 "below the recursion limit")
    return import_module(".fill", __name__)


def __getattr__(name: str):
    if name in _EXPORTS:  # ``chocnum.modular`` after a bare ``import chocnum``
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
