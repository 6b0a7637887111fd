"""Tests for the experiment harness (tiny budgets: structure + shape)."""

import pytest

from repro.experiments import (
    ExperimentConfig,
    edge_universe,
    format_count,
    format_table,
    mann_whitney_p,
    run_fd_rewind_ablation,
    run_global_pass_figure,
    run_motivation,
    run_pass_ablation,
    run_restore_lifecycle,
    run_spectrum,
    run_table5,
    run_table6,
    run_table7,
    run_timeline,
)
from repro.experiments.config import PAPER_SAMPLES, paper_finals
from repro.experiments.platform import ExperimentSpec

TINY = ExperimentConfig(
    budget_ns=4_000_000, trials=2, targets=["giftext", "libbpf"]
)

#: Tables 5-7 at TINY (Table 7 on libbpf) as uninterrupted campaigns
#: render them; the sliced, checkpointed paper trials must agree.
GOLDEN_TINY_TABLES = (
    "Benchmark  ClosureX  AFL++  Speedup  p value\n"
    "---------  --------  -----  -------  -------\n"
    "giftext    7.51B     1.81B  4.16     0.3333 \n"
    "libbpf     6.57B     1.61B  4.09     0.3333 \n"
    "Average                     4.12            ",
    "Benchmark  ClosureX  AFL++   % Improvement  p value\n"
    "---------  --------  ------  -------------  -------\n"
    "giftext    70.45%    63.64%  10.71          0.333  \n"
    "libbpf     72.76%    69.66%  4.46           0.333  \n"
    "Average                      7.58                  ",
    "Benchmark  ClosureX (vs)  AFL++ (vs)  Bug Type       \n"
    "---------  -------------  ----------  ---------------\n"
    "libbpf     - (0/2)        - (0/2)     Null Ptr Deref.\n"
    "libbpf     - (0/2)        - (0/2)     Null Ptr Deref.\n"
    "libbpf     - (0/2)        - (0/2)     Null Ptr Deref.",
)


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    """One paper-trial directory shared by every TINY view here."""
    return str(tmp_path_factory.mktemp("paper"))


def _tiny_tables(out):
    return (
        run_table5(TINY, out).render(),
        run_table6(TINY, out).render(),
        run_table7(TINY, targets=("libbpf",), out=out).render(),
    )


class TestStatsHelpers:
    def test_mann_whitney_distinguishes(self):
        p = mann_whitney_p([1, 2, 3, 4, 5], [10, 11, 12, 13, 14])
        assert p < 0.05

    def test_mann_whitney_degenerate(self):
        assert mann_whitney_p([], [1.0]) == 1.0
        assert mann_whitney_p([5.0, 5.0], [5.0, 5.0]) == 1.0

    def test_format_count(self):
        assert format_count(379_000_000) == "379M"
        assert format_count(1_500_000_000) == "1.50B"
        assert format_count(2_500) == "2K"
        assert format_count(12) == "12"

    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])


class TestTable5:
    def test_structure_and_shape(self, out):
        result = run_table5(TINY, out)
        assert [row.benchmark for row in result.rows] == TINY.targets
        for row in result.rows:
            assert row.closurex_execs_24h > row.aflpp_execs_24h
            assert row.speedup > 1.5
            assert len(row.closurex_trials) == TINY.trials
        assert result.average_speedup > 1.5
        rendered = result.render()
        assert "Speedup" in rendered and "Average" in rendered


class TestTable6:
    def test_structure(self, out):
        result = run_table6(TINY, out)
        for row in result.rows:
            assert 0 < row.closurex_coverage <= 100
            assert 0 < row.aflpp_coverage <= 100
        assert "% Improvement" in result.render()

    def test_edge_universe_positive(self):
        assert edge_universe("giftext") > 50


class TestTable7:
    def test_finds_bugs_in_both_mechanisms(self, tmp_path):
        config = ExperimentConfig(budget_ns=12_000_000, trials=2,
                                  targets=["libbpf"])
        result = run_table7(config, targets=("libbpf",), out=str(tmp_path))
        assert len(result.rows) == 3  # libbpf's three planted bugs
        found_by_closurex = [r for r in result.rows if r.closurex_times]
        assert found_by_closurex, "ClosureX found no libbpf bugs"
        # The crash's virtual discovery time, as the uninterrupted
        # campaign recorded it.
        assert [r.closurex_times for r in found_by_closurex] == [
            [0.011903724]
        ]
        rendered = result.render()
        assert "Null Ptr Deref." in rendered

    def test_row_cells(self, tmp_path):
        config = ExperimentConfig(budget_ns=6_000_000, trials=1,
                                  targets=["libbpf"])
        result = run_table7(config, targets=("libbpf",), out=str(tmp_path))
        for row in result.rows:
            cell = row.cell("closurex")
            assert "(" in cell and ")" in cell


class TestSpectrum:
    def test_ordering(self):
        spectrum = run_spectrum("giftext", iterations=10)
        assert spectrum.ordering_correct(), spectrum.render()
        by_name = {p.mechanism: p for p in spectrum.points}
        assert by_name["fresh"].management_share > 0.8
        assert by_name["closurex"].management_share < 0.2


class TestPassFigures:
    def test_global_pass_figure(self):
        figure = run_global_pass_figure("giftext")
        assert figure.relocated
        assert figure.section_bytes > 0
        assert figure.kept_constant  # SIG87/SIG89 stay out

    def test_restore_lifecycle(self):
        figure = run_restore_lifecycle("bsdtar")
        assert figure.restored_section_bytes > 0
        assert figure.clean_after_restore
        assert figure.dirty_global_bytes > 0


class TestMotivation:
    def test_all_three_pathologies(self):
        report = run_motivation()
        assert report.fresh_crash
        assert report.persistent_missed_crash
        assert report.persistent_false_crashes
        assert not report.false_crash_reproducible_fresh
        assert report.closurex_crash
        assert report.demonstrates_incorrectness
        assert "false crashes" in report.render()


class TestAblation:
    def test_pass_ablation_breaks_predictably(self):
        result = run_pass_ablation("bsdtar")
        assert result.row_for("").fully_clean
        assert not result.row_for("ExitPass").survives_exit
        assert not result.row_for("HeapPass").heap_clean
        assert not result.row_for("FilePass").fds_clean
        assert not result.row_for("GlobalPass").globals_clean

    def test_fd_rewind_ablation(self):
        result = run_fd_rewind_ablation("freetype", iterations=5)
        # freetype leaks its FILE on the table-count exit path only, so
        # most iterations close the handle in-target; the ablation also
        # covers targets with init handles — assert the accounting adds up.
        assert result.restore_ns_with >= 0
        assert result.restore_ns_without >= 0


class TestPaperCli:
    def test_motivation_and_fd_rewind_render(self, capsys, tmp_path):
        from repro.experiments.__main__ import main
        assert main(["motivation", "fd-rewind", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "false crashes" in out and "giftext: rewound=" in out

    def test_pass_figure_and_lifecycle_render(self, capsys, tmp_path):
        from repro.experiments.__main__ import main
        assert main(["pass-figure", "lifecycle", "--target", "md4c",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "md4c: 13 writable globals (1348 B) -> " in out
        assert "restore copied 1348 B back; clean=True" in out


class TestTimeline:
    def test_series_for_both_mechanisms(self, out):
        figure = run_timeline("giftext", TINY, out)
        assert {s.mechanism for s in figure.series} == {"closurex", "forkserver"}
        for series in figure.series:
            assert series.points

    def test_last_point_is_trial_zero_final(self, out):
        figure = run_timeline("giftext", TINY, out)
        finals = paper_finals(TINY, ["giftext"], out)["giftext"]
        for series in figure.series:
            final = finals[series.mechanism][0]
            assert len(series.points) == PAPER_SAMPLES
            assert series.points[-1] == (
                TINY.budget_ns / 1e9, final["execs"], final["edges"]
            )


class TestPaperTrials:
    def test_tables_match_golden_text(self, out):
        assert _tiny_tables(out) == GOLDEN_TINY_TABLES

    def test_second_view_runs_no_campaign(self, out, monkeypatch):
        first = _tiny_tables(out)

        def no_campaigns(*args, **kwargs):
            raise AssertionError("a view over finished trials ran one")

        monkeypatch.setattr(
            "repro.experiments.platform.measurer.open_campaign",
            no_campaigns,
        )
        assert _tiny_tables(out) == first
        assert run_timeline("giftext", TINY, out).series


class TestConfig:
    def test_trial_seed_stable(self):
        config = ExperimentConfig()
        assert config.trial_seed("a", 0) == config.trial_seed("a", 0)
        assert config.trial_seed("a", 0) != config.trial_seed("a", 1)
        assert config.trial_seed("a", 0) != config.trial_seed("b", 0)
        assert [config.trial_seed("giftext", i) for i in range(3)] == [
            113497837, 113497838, 113497839
        ]
        # Config and spec seeds agree, and every paper trial uses its
        # config seed under both mechanisms.
        spec = ExperimentSpec(name="any", targets=["md4c"],
                              mechanisms=["fresh"],
                              base_seed=config.base_seed)
        assert spec.trial_seed("md4c", 1) == config.trial_seed("md4c", 1)
        trials = config.paper_spec("md4c").enumerate_trials()
        assert len(trials) == 2 * config.trials
        for trial in trials:
            assert trial.seed == config.trial_seed("md4c", trial.trial_index)

    def test_env_targets_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_TARGETS", "giftext, nope")
        with pytest.raises(ValueError, match="nope"):
            ExperimentConfig()

    def test_env_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_BUDGET_MS", "7")
        assert ExperimentConfig().budget_ns == 7_000_000
