"""Execute every documented example so the docs cannot rot.

Each script under ``examples/`` is both documentation (the README and
docs/ link to them as the canonical snippets) and a program; this
module runs each one in a subprocess exactly as the README tells a
user to, and asserts it exits cleanly.  A doc snippet that stops
working therefore fails CI instead of silently misleading readers.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples"

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
