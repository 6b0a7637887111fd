"""The interpreter's differential and trap tests on compiled functions.

Every test of ``tests/test_interpreter_differential.py`` and
``tests/test_interpreter_traps.py`` runs here again with each VM as the
test makes it, not with opcode counts forced on: a call by a VM that
keeps no profiling counts and traces no edges runs the function
compiled, which its first such call makes, so the comparisons with the
reference interpreter (untraced replays, the instruction-limit sweeps'
uncounted runs, limits crossed after a call, at phis and at a checked
load, traps in callees, undefined operands, every opcode and fold, the
malformed-IR traps) hold for compiled functions as they do an
instruction at a time.  Runs that keep profiling counts or trace edges
run an instruction at a time here too.  After each test the ``tier``
fixture checks that every function a VM keeping no counts and tracing
no edges ran was compiled.
"""

import pytest

from tests.helpers import code_run
from tests.test_interpreter_differential import *  # noqa: F401,F403
from tests.test_interpreter_traps import *  # noqa: F401,F403


@pytest.fixture(autouse=True)
def tier(monkeypatch):
    """Every function that a VM keeping no counts and tracing no edges
    ran is compiled."""
    codes = code_run(monkeypatch)
    yield
    assert [code.name for code, plain in codes.items()
            if plain and code.compiled is None] == []
