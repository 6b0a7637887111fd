"""Execute every documented example so the docs cannot rot.

Each script under ``examples/`` is both documentation (the README and
docs/ link to them as the canonical snippets) and a program; this
module runs each one in a subprocess exactly as the README tells a
user to, and asserts it exits cleanly.  A doc snippet that stops
working therefore fails CI instead of silently misleading readers.
The "Fixed, not tunable" tables of docs/tuning.md are checked against
the constants they name the same way.
"""

from __future__ import annotations

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples"
TUNING = REPO / "docs" / "tuning.md"

#: script -> argv tail (sized down where the script takes a budget).
RUNNABLE = {
    "quickstart.py": [],
    "parallel_fuzz.py": [],
    "observability.py": [],
    "supervised_fuzz.py": [],
    "integrity_check.py": [],
    "custom_target.py": [],
    "persistent_pathologies.py": [],
    "pass_playground.py": [],
    "fuzz_gpmf.py": ["8"],        # 8 virtual ms instead of the default 120
    "run_experiment.py": [],
    "fuzz_service.py": [],
    "corpus_store.py": [],
    "i2s_fuzz.py": [],
}


def _run(script: str, args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True, text=True, timeout=600, env=env,
    )


def test_every_example_is_covered_here():
    on_disk = {p.name for p in EXAMPLES.glob("*.py")}
    assert on_disk == set(RUNNABLE), (
        "examples/ and tests/test_docs_examples.py disagree; new example "
        "scripts must be added to RUNNABLE"
    )


@pytest.mark.parametrize("script", sorted(RUNNABLE))
def test_example_runs_clean(script):
    result = _run(script, RUNNABLE[script])
    assert result.returncode == 0, (
        f"{script} exited {result.returncode}\n"
        f"--- stdout ---\n{result.stdout[-2000:]}\n"
        f"--- stderr ---\n{result.stderr[-2000:]}"
    )
    assert result.stdout.strip(), f"{script} printed nothing"


def test_readme_quickstart_cli_digest_is_stable():
    """The README's headline command prints a reproducible digest."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    argv = [sys.executable, "-m", "repro.fuzzing", "--target", "md4c",
            "--workers", "2", "--seed", "7",
            "--budget-ms", "4", "--sync-ms", "2"]
    first = subprocess.run(argv, capture_output=True, text=True,
                           timeout=600, env=env, cwd=REPO)
    assert first.returncode == 0, first.stderr
    digest = [line for line in first.stdout.splitlines()
              if line.startswith("digest:")]
    assert digest, first.stdout


def _fixed_constants():
    """``(module, constant, value)`` for each row of the tables that
    follow a paragraph opening "Fixed, not tunable".  The paragraph
    names the module; a row's constant may add submodules to it
    (``sync.MAX_IMPORTS_PER_SYNC``)."""
    blocks = TUNING.read_text(encoding="utf-8").split("\n\n")
    for intro, table in zip(blocks, blocks[1:]):
        if not intro.startswith("Fixed, not tunable"):
            continue
        module = re.search(r"`(repro(?:\.\w+)+)`", intro).group(1)
        lines = table.strip().splitlines()
        assert lines[0].replace(" ", "") == "|constant|value|effect|", intro
        for row in lines[2:]:
            constant, value = (
                cell.strip().strip("`") for cell in row.split("|")[1:3]
            )
            yield module, constant, value


def test_tuning_doc_fixed_constants_match_the_code():
    """Every constant a "Fixed, not tunable" table documents has the
    documented value, so changing one fails until the doc follows."""
    rows = list(_fixed_constants())
    assert rows
    for module, constant, value in rows:
        path, _, name = f"{module}.{constant}".rpartition(".")
        actual = getattr(importlib.import_module(path), name)
        assert actual == ast.literal_eval(value), (path, name, actual)
