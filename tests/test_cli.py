"""Tests for the analysis, experiments, fuzzing and store command lines.

``python -m repro.analysis`` is the lint gate with two subcommands,
``opt`` and ``integrity``; ``python -m repro.experiments`` runs the
paper's entry points and, under ``matrix``, the experiment platform;
``python -m repro.fuzzing`` runs one campaign or a fleet;
``python -m repro.store fsck`` checks a state tree.  Each is driven
in-process through its ``main(argv)``.  Bad input, an output path that
cannot be created and written included, must exit 2 with one
``error:`` line on stderr, never a traceback.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.__main__ import main as analysis_main
from repro.experiments.__main__ import demo_spec
from repro.experiments.__main__ import main as experiments_main
from repro.fuzzing.__main__ import main as fuzzing_main
from repro.store.__main__ import main as store_main


class TestAnalysisCli:
    def test_bare_call_is_the_lint_gate(self, capsys):
        assert analysis_main([]) == 0
        assert "lint-targets: 0 error(s)" in capsys.readouterr().out

    def test_opt_json_report(self, capsys):
        assert analysis_main(["opt", "--targets", "giftext", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro-opt-report/1"
        assert report["rejected"] == 0
        assert [entry["target"] for entry in report["targets"]] == ["giftext"]

    def test_integrity_reports_all_targets_restore_clean(self, capsys):
        assert analysis_main(["integrity"]) == 0
        out = capsys.readouterr().out
        assert "10/10 targets restore-clean" in out
        assert "FAIL" not in out


class TestMatrixCli:
    def test_print_spec_is_the_demo_spec(self, capsys):
        assert experiments_main(["matrix", "--demo", "--print-spec"]) == 0
        assert capsys.readouterr().out == demo_spec().canonical_json() + "\n"

    def test_report_only_reprints_the_run_report(self, capsys, tmp_path,
                                                 monkeypatch):
        out = str(tmp_path / "exp")
        assert experiments_main(
            ["matrix", "--demo", "--out", out, "--quiet"]) == 0
        digests = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith(("store digest: ", "report digest: "))]
        assert len(digests) == 2

        def no_trials(*args, **kwargs):
            raise AssertionError("--report-only ran a trial")

        monkeypatch.setattr(
            "repro.experiments.__main__.TrialScheduler.run", no_trials)
        assert experiments_main(["matrix", "--report-only", "--out", out]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines
                if line.startswith("report digest: ")] == digests[1:]


@pytest.mark.parametrize("main, argv", [
    (analysis_main, ["opt", "--targets", "nosuch"]),
    (experiments_main, ["matrix", "--spec", "{tmp}/missing.json"]),
    (experiments_main, ["matrix", "--spec", "{tmp}/malformed.json"]),
    (experiments_main, ["matrix", "--report-only", "--out", "{tmp}/empty"]),
    (fuzzing_main, ["--budget-ms", "4"]),
    (fuzzing_main, ["--target", "md4c", "--workers", "0"]),
    (fuzzing_main, ["--target", "md4c", "--workers", "2", "--i2s"]),
    (fuzzing_main, ["--target", "md4c", "--budget-ms", "0"]),
    (fuzzing_main, ["--target", "md4c", "--budget-ms", "-3"]),
    (fuzzing_main, ["--target", "md4c", "--workers", "2", "--sync-ms", "0"]),
    (fuzzing_main, ["--target", "md4c", "--checkpoint", "{tmp}/empty/ck",
                    "--checkpoint-ms", "0"]),
    (fuzzing_main, ["--target", "md4c", "--resume", "{tmp}/empty/ck"]),
    (fuzzing_main, ["--target", "giftext", "--budget-ms", "1",
                    "--report-dir", "{tmp}/empty/X", "--processes",
                    "--per-worker-reports"]),
    (fuzzing_main, ["--target", "giftext", "--budget-ms", "1",
                    "--processes"]),
    (fuzzing_main, ["--target", "giftext", "--budget-ms", "1",
                    "--report-dir", "{tmp}/empty/X"]),
    (fuzzing_main, ["--target", "giftext", "--budget-ms", "1",
                    "--per-worker-reports"]),
    (fuzzing_main, ["--target", "giftext", "--budget-ms", "1",
                    "--workers", "2", "--per-worker-reports"]),
    (fuzzing_main, ["--target", "giftext", "--checkpoint",
                    "{tmp}/malformed.json/x.ckpt"]),
    (fuzzing_main, ["--target", "giftext", "--checkpoint", "/dev/null/x.ckpt"]),
    (fuzzing_main, ["--target", "giftext", "--workers", "2", "--report-dir",
                    "{tmp}/malformed.json/x"]),
    (fuzzing_main, ["--target", "giftext", "--workers", "2", "--report-dir",
                    "/dev/null/x"]),
    (store_main, ["fsck", "{tmp}/empty", "--repair", "--json",
                  "{tmp}/malformed.json/x.json"]),
    (store_main, ["fsck", "{tmp}/empty", "--repair", "--json",
                  "/dev/null/x.json"]),
], ids=["opt-unknown-target", "matrix-missing-spec",
        "matrix-malformed-spec", "matrix-report-only-no-store",
        "fuzz-no-target", "fuzz-workers-0", "fuzz-i2s-fleet",
        "fuzz-budget-0", "fuzz-budget-negative", "fuzz-sync-0",
        "fuzz-checkpoint-ms-0", "fuzz-resume-missing",
        "fuzz-fleet-flags-one-worker", "fuzz-processes-one-worker",
        "fuzz-report-dir-one-worker", "fuzz-per-worker-reports-one-worker",
        "fuzz-per-worker-reports-no-report-dir",
        "fuzz-checkpoint-under-a-file", "fuzz-checkpoint-under-dev-null",
        "fuzz-report-dir-under-a-file", "fuzz-report-dir-under-dev-null",
        "fsck-json-under-a-file", "fsck-json-under-dev-null"])
def test_bad_input_exits_2_with_one_error_line(main, argv, tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    (tmp_path / "malformed.json").write_text("{not json")
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    # A report-only run over a directory without a store leaves it as
    # it found it.
    assert list((tmp_path / "empty").iterdir()) == []


@pytest.mark.parametrize("name, value", [
    ("REPRO_TRIALS", "0"), ("REPRO_BUDGET_MS", "-3"),
    ("REPRO_BUDGET_MS", "abc"), ("REPRO_TARGETS", "nosuch"),
])
def test_unusable_sizing_exits_2_before_any_trial(name, value, tmp_path,
                                                  monkeypatch, capsys):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran under unusable sizing")

    monkeypatch.setattr(
        "repro.experiments.__main__.TrialScheduler.run", no_trials)
    monkeypatch.setenv(name, value)
    out = tmp_path / "paper"
    assert experiments_main(["table5", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert name in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("argv", [["table5"], ["table6", "table7"],
                                  ["matrix", "--demo"]])
@pytest.mark.parametrize("where", ["a file", "under a file", "/dev/null/x"])
def test_unusable_out_exits_2_before_any_trial(argv, where, tmp_path,
                                               monkeypatch, capsys):
    """An ``--out`` that cannot be created or written is one ``error:``
    line naming it and exit status 2, and no trial runs."""
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran with an unusable --out")

    monkeypatch.setattr(
        "repro.experiments.__main__.TrialScheduler.run", no_trials)
    blocker = tmp_path / "file"
    blocker.write_bytes(b"not a directory")
    out = {"a file": blocker, "under a file": blocker / "out",
           "/dev/null/x": "/dev/null/x"}[where]
    assert experiments_main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --out "), lines
    assert repr(str(out)) in lines[0]
    assert blocker.read_bytes() == b"not a directory"


def test_fresh_checkpoint_run_never_loads_the_file_at_its_path(
        tmp_path, capsys):
    """A ``--checkpoint`` path already holding another run's checkpoint
    is overwritten, not resumed."""
    def digest(*argv):
        assert fuzzing_main(["--target", "giftext", "--budget-ms", "4",
                             *argv]) == 0
        return [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("digest: ")]

    path = str(tmp_path / "ck")
    digest("--seed", "5", "--checkpoint", path)
    assert digest("--seed", "3", "--checkpoint", path) == digest("--seed", "3")


def test_unknown_target_error_names_the_known_targets(capsys):
    assert analysis_main(["opt", "--targets", "giftext,nosuch"]) == 2
    error = capsys.readouterr().err
    assert "'nosuch'" in error and "md4c" in error
