"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import chocnum
from chocnum.cli import CACHE_ENV


@pytest.fixture
def fresh_python():
    """Start a fresh interpreter that imports the chocnum this run imports,
    the installed copy where there is one.

    ``fresh_python(*args, timeout=60, **env)`` runs Python with those
    arguments and extra environment variables, and returns the finished
    process, its output captured as text.  ``fresh_python.env`` is the
    environment it starts in, for a test that drives the process itself.
    No child reads or writes the cache directory the caller's environment
    names."""
    base = {name: value for name, value in os.environ.items() if name != CACHE_ENV}
    base["PYTHONPATH"] = str(Path(chocnum.__file__).parents[1])

    def run(*args, timeout=60, **env):
        return subprocess.run([sys.executable, *args], env={**base, **env},
                              capture_output=True, text=True, timeout=timeout)

    run.env = base
    return run
