"""Root pytest configuration: the test run writes no bytecode, so no
``__pycache__`` is left under ``src/`` for later runs of the package to read."""

import sys

sys.dont_write_bytecode = True
