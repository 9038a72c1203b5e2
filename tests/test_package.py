"""The package namespace: public names resolved in their submodules, and
the one module that imports numpy."""

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


ARGUMENT_CHECKS = [
    ("factor(0)", lambda: chocnum.factor(0)),
    ("divides_factorial(0, 3)", lambda: chocnum.divides_factorial(0, 3)),
    ("divides_factorial(3, -1)", lambda: chocnum.divides_factorial(3, -1)),
    ("hyper_numerators_mod(0, 7)", lambda: chocnum.hyper_numerators_mod(0, 7)),
    ("hyper_numerators_mod(5, 1)", lambda: chocnum.hyper_numerators_mod(5, 1)),
    ("persistent_divisor_check(3, 0, [])", lambda: chocnum.persistent_divisor_check(3, 0, [])),
    ("zero_tail_prime(9)", lambda: chocnum.zero_tail_prime(9)),
    ("hyper_numerators(0)", lambda: chocnum.hyper_numerators(0)),
    ("riccati_residual_of(order 2)", lambda: chocnum.riccati_residual_of(_series(0, 1, 0))),
    ("riccati_residual_of(constant 1)",
     lambda: chocnum.riccati_residual_of(_series(1, 1, 0, 0))),
    ("linear_ode_residual_of(order 3)",
     lambda: chocnum.linear_ode_residual_of(_series(1, 1, 0, 0))),
]


@pytest.mark.parametrize("call", [call for _, call in ARGUMENT_CHECKS],
                         ids=[name for name, _ in ARGUMENT_CHECKS])
def test_public_functions_reject_arguments_outside_their_range(call):
    with pytest.raises(ValueError):
        call()
