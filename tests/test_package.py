"""The package namespace: public names resolved in their submodules, the
one module that imports numpy, and every argument a public function
rejects."""

import ast
import importlib
from pathlib import Path

import pytest

import chocnum

EXPORTED = {
    "arith": {"CofactorStatus", "Factorization", "binomial", "divides_factorial", "factor",
              "is_prime", "nu_p"},
    "chocolate": {"CacheFormatError", "ChocolateTable", "SequenceFrontierError",
                  "SequenceKind", "SequenceSpec", "chocolate2", "chocolate_number",
                  "generate", "load_cache", "save_cache"},
    "modular": {"PeriodReport", "ScanRecord", "binom_sum_1_mod6", "binom_sum_5_mod6",
                "chocolate2_mod", "chocolate2_mod_many", "conjecture_scan",
                "detect_eventual_period", "hyper_numerators_mod", "mod3_pattern_check",
                "persistent_divisor_check", "residue_kernel", "zero_tail_prime"},
    "oracle": {"count_sequences"},
    "series": {"RationalSeries", "chocolate2_gf", "hyper_numerators", "hypergeom_series",
               "linear_ode_residual_of", "log_derivative_residual_of", "riccati_residual",
               "riccati_residual_of", "verify_linear_ode", "verify_log_derivative"},
}
CASES = [(module, name) for module, names in EXPORTED.items() for name in sorted(names)]


def test_all_lists_every_exported_name_once():
    assert len(chocnum.__all__) == len(set(chocnum.__all__)) == 41
    assert set(chocnum.__all__) == set().union(*EXPORTED.values())


@pytest.mark.parametrize("module, name", CASES, ids=[name for _, name in CASES])
def test_each_name_is_the_submodule_object(module, name):
    assert getattr(chocnum, name) is getattr(importlib.import_module(f"chocnum.{module}"), name)


def test_dir_lists_the_public_names():
    assert set(chocnum.__all__) <= set(dir(chocnum))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        chocnum.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from chocnum import no_such_name  # noqa: F401


def test_names_are_not_cached_in_the_package(monkeypatch):
    # a wrapper patched into the submodule is what the package hands out,
    # and removing it restores the original there and here
    import chocnum.arith as arith

    original = chocnum.binomial
    assert "binomial" not in vars(chocnum)
    monkeypatch.setattr(arith, "binomial", lambda n, k: -1)
    assert chocnum.binomial(4, 2) == -1
    monkeypatch.undo()
    assert chocnum.binomial is original and chocnum.binomial(4, 2) == 6


def test_submodules_are_reachable_after_a_bare_import():
    for module in EXPORTED:
        assert chocnum.__getattr__(module) is importlib.import_module(f"chocnum.{module}")


def test_only_fill_imports_numpy():
    # every import statement, function-local ones too, of every module of
    # the package this run imports: the installed copy, where there is one
    importers = set()
    for path in Path(chocnum.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(path.name)
    assert importers == {"fill.py"}


def _series(*coeffs):
    return chocnum.RationalSeries(coeffs)


def _bad(name, *args, error=ValueError, match=None):
    """A row of ARGUMENT_CHECKS: chocnum.<name>(*args) raises error, its
    message matching match where one is given."""
    shown = ", ".join(map(repr, args))
    return f"{name}({shown})", lambda: getattr(chocnum, name)(*args), error, match


# (id, call, the exception it raises, a pattern its message matches or None)
ARGUMENT_CHECKS = [
    _bad("binomial", -3, 1),
    _bad("nu_p", 0, 2),
    _bad("nu_p", 12, 4),
    _bad("factor", 0),
    _bad("divides_factorial", 0, 3),
    _bad("divides_factorial", 3, -1),
    ("divides_factorial((2^89 - 1)^2, 100)",  # a k with an unresolved cofactor
     lambda: chocnum.divides_factorial((2**89 - 1) ** 2, 100), ValueError, None),
    _bad("chocolate_number", 0, 3),
    _bad("chocolate_number", 3, 0),
    _bad("chocolate2", 0),
    _bad("SequenceSpec", "x", 3, match="'x' is not a valid SequenceKind"),
    _bad("chocolate2_mod", 0, 3),
    _bad("chocolate2_mod", 5, 1),
    # checked up front, with chocolate2_mod's message, not only by a group's pass
    _bad("chocolate2_mod_many", 0, [], match=r"n_max must be >= 1, got 0"),
    _bad("chocolate2_mod_many", 0, [5], match=r"n_max must be >= 1, got 0"),
    _bad("hyper_numerators_mod", 0, 7),
    _bad("hyper_numerators_mod", 5, 1),
    _bad("detect_eventual_period", [1, 2, 3]),
    _bad("persistent_divisor_check", 3, 0, []),
    _bad("persistent_divisor_check", 0, 5, [1, 4, 1, 7, 4, 0, 0, 0, 0, 0]),  # B_1..B_10 mod 11
    _bad("persistent_divisor_check", 11, 20, [1, 4, 1, 7, 4, 0, 0, 0, 0, 0], match="window needs"),
    _bad("zero_tail_prime", 9),
    _bad("mod3_pattern_check", 1),
    *(_bad("binom_sum_1_mod6", n) for n in (2, 7, 9)),
    *(_bad("binom_sum_5_mod6", n) for n in (4, 9, 11)),
    _bad("conjecture_scan", 4, [3], 200),
    _bad("conjecture_scan", 1, [3], 50),
    _bad("conjecture_scan", 1, [9], 200),  # composite where a prime is required
    _bad("count_sequences", 0, 3),
    _bad("count_sequences", 4, 4),  # area 16 over the default limit
    ("RationalSeries product of orders 3 and 5",
     lambda: _series(0, 1, 2, 0) * _series(1, 0, 0, 0, 0, 0), ValueError,
     "operands must share a truncation order"),
    _bad("hyper_numerators", 0),
    _bad("hypergeom_series", 0),
    _bad("chocolate2_gf", 0),
    _bad("riccati_residual", 2),
    _bad("verify_log_derivative", 2),
    _bad("verify_linear_ode", 3),
    ("riccati_residual_of(order 2)", lambda: chocnum.riccati_residual_of(_series(0, 1, 0)),
     ValueError, None),
    ("riccati_residual_of(constant 1)", lambda: chocnum.riccati_residual_of(_series(1, 1, 0, 0)),
     ValueError, "cannot divide by X: nonzero constant term"),
    ("log_derivative_residual_of(orders 6 and 7)",
     lambda: chocnum.log_derivative_residual_of(chocnum.chocolate2_gf(6),
                                                chocnum.hypergeom_series(7)),
     ValueError, "must share a truncation order"),
    ("linear_ode_residual_of(order 3)",
     lambda: chocnum.linear_ode_residual_of(_series(1, 1, 0, 0)), ValueError, None),
    # floats are not integers
    *(_bad(name, *args, error=TypeError) for name, *args in [
        ("is_prime", 7.0), ("factor", 12.0), ("nu_p", 12.0, 2), ("nu_p", 12, 2.0),
        ("divides_factorial", 12.0, 5), ("divides_factorial", 12, 5.0),
        ("chocolate_number", 2.0, 5), ("chocolate_number", 2, 5.0), ("chocolate2", 3.0),
        ("SequenceSpec", chocnum.SequenceKind.SQUARE, 3.0), ("zero_tail_prime", 7.0),
        ("conjecture_scan", 2, [4], 100.0),
    ]),
]


@pytest.mark.parametrize("call,error,match", [row[1:] for row in ARGUMENT_CHECKS],
                         ids=[row[0] for row in ARGUMENT_CHECKS])
def test_public_functions_reject_arguments_outside_their_range(call, error, match):
    with pytest.raises(error, match=match):
        call()
