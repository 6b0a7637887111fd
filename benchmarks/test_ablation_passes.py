"""Benchmark E8 — ablations over ClosureX's design choices.

Dropping any single restoration pass must break exactly its invariant
(DESIGN.md E8); the init-handle fseek optimisation must not change
correctness while reducing restore work where init handles exist.
"""

import pytest

from conftest import save_result
from repro.experiments import run_fd_rewind_ablation, run_pass_ablation


@pytest.fixture(scope="module")
def ablation():
    return run_pass_ablation("bsdtar")


def test_ablation_regenerates(benchmark, results_dir):
    result = benchmark.pedantic(
        run_pass_ablation, args=("bsdtar",), rounds=1, iterations=1
    )
    save_result(results_dir, "ablation_passes", result.render())


def test_full_pipeline_is_clean(ablation):
    assert ablation.row_for("").fully_clean


def test_each_pass_guards_its_invariant(ablation):
    assert not ablation.row_for("ExitPass").survives_exit
    assert not ablation.row_for("HeapPass").heap_clean
    assert not ablation.row_for("FilePass").fds_clean
    assert not ablation.row_for("GlobalPass").globals_clean


def test_no_collateral_damage(ablation):
    """Skipping one pass must not break the others' invariants."""
    heap_row = ablation.row_for("HeapPass")
    assert heap_row.globals_clean and heap_row.survives_exit
    global_row = ablation.row_for("GlobalPass")
    assert global_row.heap_clean and global_row.fds_clean


def test_fd_rewind_optimisation(results_dir):
    result = run_fd_rewind_ablation("giftext", iterations=10)
    save_result(results_dir, "ablation_fd_rewind", result.render())
    assert result.restore_ns_with >= 0
