"""Shared fixtures for the paper-reproduction benchmarks.

Sizing comes from the environment (see repro.experiments.config):

    REPRO_BUDGET_MS  virtual ms per campaign   (default 20)
    REPRO_TRIALS     trials per configuration  (default 3)
    REPRO_TARGETS    comma-separated target subset

The paper trials live in one session-wide ``paper_out`` directory (one
results store per target), so Tables 5/6 and the timeline figure share
one set of trials within a pytest session.  Rendered tables are
written to ``benchmarks/results/``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments import ExperimentConfig

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    return ExperimentConfig()


@pytest.fixture(scope="session")
def paper_out(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("paper"))


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_result(results_dir: pathlib.Path, name: str, text: str) -> None:
    (results_dir / f"{name}.txt").write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}")
