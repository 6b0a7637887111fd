"""End-to-end tests for the experiment platform (spec / store /
scheduler / report).

The expensive properties — bit-reproducible store and report digests,
checkpoint resume equivalence — run on a deliberately tiny matrix
(1 target x 2 arms x 1-2 trials, 2 virtual ms) so the whole file stays
in tier-1 time.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments.platform import (
    Arm,
    ExperimentSpec,
    Measurer,
    ReportError,
    ReportGenerator,
    ResultsStore,
    SpecError,
    StoreError,
    TrialScheduler,
)
from repro.experiments.platform.spec import MS
from repro.parallel import ParallelCampaign


def tiny_spec(**overrides) -> ExperimentSpec:
    kwargs = dict(
        name="tiny",
        targets=["giftext"],
        mechanisms=["closurex", "forkserver"],
        trials=2,
        budget_ns=2 * MS,
        measure_every_ns=1 * MS,
        base_seed=7,
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


class TestSpec:
    def test_enumeration_shape_and_order(self):
        spec = tiny_spec()
        trials = spec.enumerate_trials()
        assert len(trials) == 1 * 2 * 2
        assert [t.trial_id for t in trials] == [
            "giftext--closurex--default--t0",
            "giftext--closurex--default--t1",
            "giftext--forkserver--default--t0",
            "giftext--forkserver--default--t1",
        ]

    def test_seed_paired_across_arms(self):
        spec = tiny_spec()
        by_arm = {}
        for trial in spec.enumerate_trials():
            by_arm.setdefault(trial.arm.label, []).append(trial.seed)
        assert by_arm["closurex"] == by_arm["forkserver"]
        # ...but distinct across trial indices.
        assert len(set(by_arm["closurex"])) == 2

    def test_variants_multiply_arms(self, tmp_path):
        variants = {"default": {}, "hot": {"havoc_base_energy": 96}}
        spec = tiny_spec(variants=variants)
        labels = [arm.label for arm in spec.arms]
        assert labels == [
            "closurex", "closurex@hot", "forkserver", "forkserver@hot",
        ]
        # The override reaches the campaign a hot trial runs: the lone
        # campaign, or every shard of a fleet.
        for n_workers in (1, 2):
            spec = tiny_spec(variants=variants, n_workers=n_workers)
            trial = next(
                t for t in spec.enumerate_trials() if t.arm.variant == "hot"
            )
            store = ResultsStore(str(tmp_path / f"workers-{n_workers}"))
            store.bind_spec(spec)
            campaign, _ = Measurer(store).open_trial(trial)
            runs = ([runtime.campaign
                     for runtime in campaign._transport.runtimes]
                    if isinstance(campaign, ParallelCampaign)
                    else [campaign])
            assert len(runs) == n_workers
            assert all(run.config.havoc_base_energy == 96 for run in runs)
            campaign.finish_run()

    def test_digest_is_stable_and_content_sensitive(self):
        assert tiny_spec().digest() == tiny_spec().digest()
        assert tiny_spec().digest() != tiny_spec(base_seed=8).digest()

    def test_round_trip_through_dict(self):
        spec = tiny_spec()
        clone = ExperimentSpec.from_dict(
            json.loads(spec.canonical_json())
        )
        assert clone.digest() == spec.digest()

    @pytest.mark.parametrize("overrides", [
        {"targets": []},
        {"mechanisms": []},
        {"mechanisms": ["qemu"]},
        {"trials": 0},
        {"budget_ns": 0},
        {"n_workers": 0},
        {"variants": {"bad": {"checkpoint_path": "/tmp/x"}}},
    ])
    def test_invalid_specs_rejected(self, overrides):
        with pytest.raises(SpecError):
            tiny_spec(**overrides)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(SpecError):
            ExperimentSpec.from_dict({"name": "x", "bogus": 1})


class TestStore:
    def test_append_read_round_trip(self, tmp_path):
        store = ResultsStore(str(tmp_path / "store"))
        store.append("t1", {"kind": "sample", "k": 1, "clock_ns": 5})
        store.append("t1", {"kind": "final", "execs": 10})
        records = store.read("t1")
        assert [r["kind"] for r in records] == ["sample", "final"]
        assert store.completed("t1")
        assert not store.completed("t2")
        assert store.trial_ids() == ["t1"]

    def test_torn_tail_is_dropped(self, tmp_path):
        store = ResultsStore(str(tmp_path / "store"))
        store.append("t1", {"kind": "sample", "k": 1})
        with open(store.trial_path("t1"), "a", encoding="utf-8") as fh:
            fh.write('{"kind": "sam')  # simulated torn write
        records = store.read("t1")
        assert len(records) == 1 and records[0]["k"] == 1

    def test_truncate_after_realigns_stream(self, tmp_path):
        store = ResultsStore(str(tmp_path / "store"))
        for k, clock in [(1, 10), (2, 20), (3, 30)]:
            store.append("t1", {"kind": "sample", "k": k, "clock_ns": clock})
        store.append("t1", {"kind": "final", "clock_ns": 30})
        kept = store.truncate_after("t1", 20)
        assert kept == 2
        assert [r["k"] for r in store.read("t1")] == [1, 2]

    def test_torn_tail_after_batched_writes_resumes_cleanly(self, tmp_path):
        """A torn tail after a run of appends drops only the torn line;
        the valid prefix stays consistent and truncate_after realigns
        it."""
        store = ResultsStore(str(tmp_path / "store"))
        for k in range(1, 6):
            store.append(
                "t1", {"kind": "sample", "k": k, "clock_ns": k * 10}
            )
        with open(store.trial_path("t1"), "a", encoding="utf-8") as fh:
            fh.write('{"kind": "sample", "k": 6, "clo')   # torn write
        assert [r["k"] for r in store.read("t1")] == [1, 2, 3, 4, 5]
        kept = store.truncate_after("t1", 30)
        assert kept == 3
        # The stream keeps working after the realign.
        store.append("t1", {"kind": "sample", "k": 7, "clock_ns": 40})
        assert [r["k"] for r in store.read("t1")] == [1, 2, 3, 7]

    def test_reset_trial_clears_batch_state(self, tmp_path):
        """A reset trial's stream is gone and starts again empty."""
        store = ResultsStore(str(tmp_path / "store"))
        store.append("t1", {"kind": "sample", "k": 1})
        store.reset_trial("t1")
        assert store.read("t1") == []
        store.append("t1", {"kind": "sample", "k": 2})
        assert [r["k"] for r in store.read("t1")] == [2]

    def test_bind_spec_rejects_mismatch(self, tmp_path):
        store = ResultsStore(str(tmp_path / "store"))
        store.bind_spec(tiny_spec())
        store.bind_spec(tiny_spec())  # idempotent
        with pytest.raises(StoreError):
            store.bind_spec(tiny_spec(base_seed=8))

    def test_digest_covers_spec_and_streams(self, tmp_path):
        store = ResultsStore(str(tmp_path / "store"))
        store.bind_spec(tiny_spec())
        before = store.digest()
        store.append("t1", {"kind": "sample", "k": 1})
        assert store.digest() != before


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    """One fully scheduled tiny experiment, shared across tests."""
    spec = tiny_spec()
    store = ResultsStore(str(tmp_path_factory.mktemp("run") / "store"))
    finals = TrialScheduler(spec, store, max_live=3).run()
    return spec, store, finals


class TestSchedulerAndDeterminism:
    def test_finals_cover_the_matrix(self, completed_run):
        spec, store, finals = completed_run
        assert len(finals) == len(spec.enumerate_trials())
        for final in finals:
            assert final["kind"] == "final"
            assert final["execs"] > 0
        assert all(
            store.completed(t.trial_id)
            for t in spec.enumerate_trials()
        )

    def test_rerun_is_bit_identical(self, completed_run, tmp_path):
        spec, store, _ = completed_run
        other = ResultsStore(str(tmp_path / "store"))
        TrialScheduler(spec, other, max_live=1).run()
        assert other.digest() == store.digest()

    def test_second_run_skips_completed_trials(self, completed_run):
        spec, store, finals = completed_run
        log: list[str] = []
        again = TrialScheduler(spec, store, log=log.append).run()
        assert again == finals
        assert all(line.startswith("skip ") for line in log)

    def test_checkpoint_resume_matches_uninterrupted(
        self, completed_run, tmp_path
    ):
        spec, store, _ = completed_run
        partial = ResultsStore(str(tmp_path / "store"))
        partial.bind_spec(spec)
        # Run the first trial for a single interval (sample +
        # checkpoint), as if the platform was killed mid-trial...
        trial = spec.enumerate_trials()[0]
        measurer = Measurer(partial)
        campaign, k = measurer.open_trial(trial)
        campaign.step_until(campaign.start_ns + k * trial.measure_every_ns)
        partial.append(trial.trial_id, measurer.sample(trial, k, campaign))
        campaign.checkpoint()
        assert partial.read(trial.trial_id)  # half-finished on disk
        # ...then let the scheduler resume and finish everything.
        TrialScheduler(spec, partial).run()
        assert partial.digest() == store.digest()

    def test_report_digest_reproducible(self, completed_run, tmp_path):
        spec, store, _ = completed_run
        report_a, digest_a = ReportGenerator(store).write()
        other = ResultsStore(str(tmp_path / "store"))
        TrialScheduler(spec, other).run()
        _, digest_b = ReportGenerator(other).write()
        assert digest_a == digest_b
        assert os.path.exists(os.path.join(store.root, "report.json"))
        assert os.path.exists(os.path.join(store.root, "report.md"))


class TestReport:
    def test_structure_and_ranking(self, completed_run):
        _, store, _ = completed_run
        generator = ReportGenerator(store)
        report = generator.build()
        target = report["targets"]["giftext"]
        assert set(target["ranking"]) == {"closurex", "forkserver"}
        # One pairwise row per ranked pair.
        assert len(target["pairwise"]) == 1
        pair = target["pairwise"][0]
        assert {"a", "b", "p_value", "a12", "magnitude",
                "median_diff"} <= set(pair)
        assert 0.0 <= pair["p_value"] <= 1.0
        assert 0.0 <= pair["a12"] <= 1.0
        # Ranking is by median final edges, descending.
        arms = target["arms"]
        ranked_edges = [
            arms[label]["median_edges"] for label in target["ranking"]
        ]
        assert ranked_edges == sorted(ranked_edges, reverse=True)

    def test_curves_on_shared_grid(self, completed_run):
        spec, store, _ = completed_run
        report = ReportGenerator(store).build()
        for label, curve in report["curves"]["giftext"].items():
            assert curve["t_ns"] == [1 * MS, 2 * MS]
            assert len(curve["median_edges"]) == 2
            assert len(curve["per_trial_edges"]) == spec.trials
            # Coverage growth is monotone in virtual time.
            assert curve["median_edges"] == sorted(curve["median_edges"])

    def test_markdown_renders_key_sections(self, completed_run):
        _, store, _ = completed_run
        generator = ReportGenerator(store)
        text = generator.to_markdown(generator.build())
        assert "## Overall ranking" in text
        assert "## giftext" in text
        assert "closurex vs forkserver" in text or (
            "forkserver vs closurex" in text
        )
        assert "Mann-Whitney" in text

    def test_incomplete_store_is_rejected(self, tmp_path):
        store = ResultsStore(str(tmp_path / "store"))
        store.bind_spec(tiny_spec())
        with pytest.raises(ReportError):
            ReportGenerator(store).build()

    def test_missing_spec_is_rejected(self, tmp_path):
        store = ResultsStore(str(tmp_path / "store"))
        with pytest.raises(ReportError):
            ReportGenerator(store)


class TestParallelTrials:
    def test_multi_worker_trial_completes_and_reproduces(self, tmp_path):
        spec = tiny_spec(
            name="tiny-parallel",
            mechanisms=["closurex"],
            trials=1,
            n_workers=2,
        )
        store_a = ResultsStore(str(tmp_path / "a"))
        finals = TrialScheduler(spec, store_a).run()
        assert len(finals) == 1
        assert finals[0]["kind"] == "final"
        assert finals[0]["execs"] > 0
        records = store_a.read(spec.enumerate_trials()[0].trial_id)
        assert any(r["kind"] == "sample" for r in records)
        store_b = ResultsStore(str(tmp_path / "b"))
        TrialScheduler(spec, store_b).run()
        assert store_b.digest() == store_a.digest()

    def test_multi_worker_trial_resumes_mid_trial(self, tmp_path):
        """Stopped after two of its four samples (sample + checkpoint
        each) and rerun over the same store, a 2-worker trial ends on
        the uninterrupted store digest."""
        spec = tiny_spec(name="tiny-parallel-resume", mechanisms=["closurex"],
                         trials=1, budget_ns=4 * MS, n_workers=2)
        whole = ResultsStore(str(tmp_path / "whole"))
        TrialScheduler(spec, whole).run()
        partial = ResultsStore(str(tmp_path / "partial"))
        partial.bind_spec(spec)
        trial = spec.enumerate_trials()[0]
        measurer = Measurer(partial)
        fleet, first = measurer.open_trial(trial)
        for k in (first, first + 1):
            fleet.step_until(fleet.start_ns + k * trial.measure_every_ns)
            partial.append(trial.trial_id, measurer.sample(trial, k, fleet))
            fleet.checkpoint()
        assert len(partial.read(trial.trial_id)) == 2
        TrialScheduler(spec, partial).run()
        assert partial.digest() == whole.digest()

    def test_variants_reach_multi_worker_trials(self, tmp_path):
        spec = tiny_spec(
            name="tiny-parallel-variants",
            targets=["md4c"],
            mechanisms=["closurex"],
            trials=1,
            n_workers=2,
            variants={"default": {},
                      "hot": {"havoc_base_energy": 480,
                              "enable_trim": False}},
        )
        finals = TrialScheduler(spec, ResultsStore(str(tmp_path))).run()
        default, hot = sorted(finals, key=lambda final: final["variant"])
        assert (default["variant"], hot["variant"]) == ("default", "hot")
        counts = ("execs", "edges", "corpus")
        assert ([default[key] for key in counts]
                != [hot[key] for key in counts])

    def test_multi_worker_final_lists_merged_crashes(self, tmp_path):
        spec = tiny_spec(
            name="tiny-parallel-crashes",
            targets=["md4c"],
            mechanisms=["closurex"],
            trials=1,
            budget_ns=4 * MS,
            n_workers=2,
        )
        final, = TrialScheduler(spec, ResultsStore(str(tmp_path))).run()
        assert final["unique_crashes"] > 0
        assert len(final["crashes"]) == final["unique_crashes"]


class TestArmLabels:
    def test_default_variant_label_is_bare_mechanism(self):
        assert Arm("closurex").label == "closurex"
        assert Arm("closurex", "hot").label == "closurex@hot"
