"""The interpreter's differential and trap tests on compiled blocks.

Every test of ``tests/test_interpreter_differential.py`` and
``tests/test_interpreter_traps.py`` runs here again, with the run
threshold at 0: each block of decoded code compiles to a Python
function when its function is decoded, so the comparisons with the reference
interpreter (replays, profiling counts, compare records, both
instruction-limit sweeps, every opcode and fold, the malformed-IR
traps) hold for compiled blocks as they do for closures.
"""

import pytest

from repro.vm import interpreter
from tests.test_interpreter_differential import *  # noqa: F401,F403
from tests.test_interpreter_traps import *  # noqa: F401,F403


@pytest.fixture(autouse=True)
def tier(monkeypatch):
    """Every block compiles when its function is decoded."""
    monkeypatch.setattr(interpreter, "COMPILE_AFTER_RUNS", 0)
