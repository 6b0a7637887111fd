"""The interpreter's differential and trap tests on compiled functions.

Every test of ``tests/test_interpreter_differential.py`` and
``tests/test_interpreter_traps.py`` runs here again, with the run
threshold at 0: each function of decoded code compiles to one Python
function when it is decoded, so the comparisons with the reference
interpreter (untraced replays, both instruction-limit sweeps, limits
crossed after a call, at phis and at a checked load, traps in callees,
undefined operands, every opcode and fold, the malformed-IR traps)
hold for compiled functions as they do for closures.  Runs that keep
profiling counts or trace edges run on closures here too.  After each
test the ``tier`` fixture checks that every function it ran was
compiled.
"""

import pytest

from repro.vm import interpreter
from tests.helpers import code_run
from tests.test_interpreter_differential import *  # noqa: F401,F403
from tests.test_interpreter_traps import *  # noqa: F401,F403


@pytest.fixture(autouse=True)
def tier(monkeypatch):
    """Every function compiles when it is decoded, and every function
    the test ran is compiled."""
    monkeypatch.setattr(interpreter, "COMPILE_AFTER_RUNS", 0)
    codes = code_run(monkeypatch)
    yield
    assert [code.name for code in codes if code.compiled is None] == []
