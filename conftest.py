"""Root pytest configuration.

The test run writes no bytecode, so no ``__pycache__`` is left under ``src/``
for later runs of the package to read. The variable covers the Python child
processes the tests start, which copy this process's environment.

``os._exit`` raises in the test process: the CLI's entry point ends its
process with it, and a stray call would otherwise end the test run early
with status 0 and a short count."""

import os
import sys

import pytest

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"


@pytest.fixture(autouse=True)
def _no_process_exit(monkeypatch):
    def refuse(code):
        raise AssertionError(f"os._exit({code}) called in the test process")

    monkeypatch.setattr(os, "_exit", refuse)
