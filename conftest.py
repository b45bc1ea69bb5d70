"""Root pytest configuration: the test run writes no bytecode, so no
``__pycache__`` is left under ``src/`` for later runs of the package to read.
The variable covers the Python child processes the tests start, which copy
this process's environment."""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
