"""Per-layer spans recorded from outside the library.

``Tracer.install`` replaces each traced chocnum function with a timing
wrapper at every module that holds a reference to it: modules bind each
other's functions by name (``chocnum.chocolate.binomial``,
``chocnum.series.chocolate2``, the names imported into ``chocnum.cli``), so
patching only the defining module would miss most calls.  Nothing under
``src/`` changes; ``uninstall`` puts every original back.

A span's self time is its duration minus the durations of the spans it
caused.  Leaf calls are frequent (tens of thousands of binomials per pass),
so spans are aggregated per name in memory rather than kept one by one.
"""

from __future__ import annotations

import importlib
import os
from collections import defaultdict
from time import perf_counter

from catalogue import INT64_SAFE_MODULUS

MODULES = ("chocnum", "chocnum.arith", "chocnum.chocolate", "chocnum.modular",
           "chocnum.oracle", "chocnum.series", "chocnum.cli")

# (defining module, function, span name)
SPANS = (
    ("arith", "binomial", "arith.binomial"),
    ("arith", "factor", "arith.factor"),
    ("arith", "divides_factorial", "arith.divides_factorial"),
    ("arith", "nu_p", "arith.nu_p"),
    ("chocolate", "chocolate_number", "chocolate.chocolate_number"),
    ("chocolate", "chocolate2", "chocolate.chocolate2"),
    ("chocolate", "generate", "chocolate.generate"),
    ("chocolate", "save_cache", "chocolate.save_cache"),
    ("chocolate", "load_cache", "chocolate.load_cache"),
    ("modular", "chocolate2_mod", "modular.chocolate2_mod"),
    ("modular", "detect_eventual_period", "modular.detect_eventual_period"),
    ("modular", "conjecture_scan", "modular.conjecture_scan"),
    ("modular", "hyper_numerators_mod", "modular.hyper_numerators_mod"),
    ("modular", "binom_sum_1_mod6", "modular.binom_sum"),
    ("modular", "binom_sum_5_mod6", "modular.binom_sum"),
    ("modular", "mod3_pattern_check", "modular.mod3_pattern_check"),
    ("series", "riccati_residual", "series.riccati_residual"),
    ("series", "verify_linear_ode", "series.verify_linear_ode"),
    ("series", "verify_log_derivative", "series.verify_log_derivative"),
    ("oracle", "count_sequences", "oracle.count_sequences"),
    ("cli", "main", "cli.main"),
)

# Counts that must repeat exactly between two traced passes of one query list.
EXACT_COUNT_SUFFIXES = (".calls", ".terms", ".ops", ".entries", ".bytes",
                        ".object_calls", ".unresolved")


def _bits(result) -> int:
    if isinstance(result, int):
        return result.bit_length()
    return max((v.bit_length() for _, v in result), default=0)


class Tracer:
    """Aggregated spans plus the counters measured at the same boundaries."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.max_bits = 0
        self._stack = [0.0]  # child time accumulated by each open span
        self._tables = []    # ChocolateTables created since the last collect
        self._saved = []     # (module, attribute, original) to restore

    # -- recording

    def _wrap(self, name, fn, after=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self_s[name] += dur - stack.pop()
                stack[-1] += dur
                calls[name] += 1
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def _after_c2mod(self, result, n_max, m):
        self.counts["modular.chocolate2_mod.terms"] += n_max
        self.counts["modular.chocolate2_mod.ops"] += n_max * n_max // 2
        self.counts["modular.chocolate2_mod.object_calls"] += m > INT64_SAFE_MODULUS

    def _after_period(self, report, *args, **kwargs):
        self.counts["modular.detect_eventual_period.unresolved"] += not report.resolved

    def _after_save(self, result, table, path):
        self.counts["chocolate.save_cache.bytes"] += os.path.getsize(path)

    def _after_load(self, table, path):
        self.counts["chocolate.load_cache.entries"] += len(table)

    def _after_value(self, result, *args, **kwargs):
        self.max_bits = max(self.max_bits, _bits(result))

    # -- patching

    def install(self):
        mods = {name: importlib.import_module(name) for name in MODULES}
        after = {
            "modular.chocolate2_mod": self._after_c2mod,
            "modular.detect_eventual_period": self._after_period,
            "chocolate.save_cache": self._after_save,
            "chocolate.load_cache": self._after_load,
            "chocolate.chocolate_number": self._after_value,
            "chocolate.chocolate2": self._after_value,
            "chocolate.generate": self._after_value,
        }
        wrappers = {}
        for module, func, span in SPANS:
            original = getattr(mods["chocnum." + module], func)
            wrappers[id(original)] = self._wrap(span, original, after.get(span))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

        series = mods["chocnum.series"].RationalSeries
        self._saved.append((series, "__mul__", series.__mul__))
        series.__mul__ = self._wrap("series.mul", series.__mul__)

        table_cls = mods["chocnum.chocolate"].ChocolateTable
        original_init = table_cls.__init__
        tables = self._tables

        def init(table, *args, **kwargs):
            original_init(table, *args, **kwargs)
            tables.append(table)

        self._saved.append((table_cls, "__init__", original_init))
        table_cls.__init__ = init

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- reading

    def collect_tables(self):
        """Fold the tables created since the last call into the counters.
        Called at the end of each query, when its tables are complete."""
        for table in self._tables:
            self.counts["chocolate.table.computed"] += table.computed
            self.counts["chocolate.table.entries"] += len(table)
        self._tables.clear()

    def snapshot(self) -> dict:
        """Every span's calls and self time plus every counter, flat."""
        out = {}
        for name, n in self.calls.items():
            out[name + ".calls"] = n
            out[name + ".self_s"] = self.self_s[name]
        out.update(self.counts)
        return out


def is_exact_count(name: str) -> bool:
    return name.endswith(EXACT_COUNT_SUFFIXES) or name in (
        "chocolate.table.computed", "chocolate.max_bits")
