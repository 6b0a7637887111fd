"""Tests for the telemetry layer: metrics registry, tracer + sinks,
campaign integration, AFL-style reporting, and the VM profiler."""

import os

import pytest

from repro.execution import ClosureXExecutor, NaivePersistentExecutor
from repro.fuzzing import Campaign, CampaignConfig
from repro.passes import PassManager, closurex_passes
from repro.sim_os import Kernel, VirtualClock
from repro.targets import get_target
from repro.telemetry import (
    NULL_TELEMETRY,
    NULL_TRACER,
    CampaignReporter,
    JSONLSink,
    MetricsRegistry,
    NullSink,
    ProfileReport,
    RingBufferSink,
    TelemetryConfig,
    TraceEvent,
    Tracer,
    build_telemetry,
    read_jsonl,
)


def _campaign(telemetry: TelemetryConfig | None = None,
              budget_ns: int = 3_000_000, seed: int = 1,
              mechanism: str = "closurex") -> Campaign:
    spec = get_target("giftext")
    kernel = Kernel()
    if mechanism == "closurex":
        executor = ClosureXExecutor(
            spec.build_closurex(), spec.image_bytes, kernel)
    else:
        executor = NaivePersistentExecutor(
            spec.build_persistent(), spec.image_bytes, kernel)
    config = CampaignConfig(budget_ns=budget_ns, seed=seed)
    if telemetry is not None:
        config.telemetry = telemetry
    return Campaign(executor, spec.seeds, config)


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        counter = registry.counter("execs")
        counter.inc()
        counter.inc(4)
        assert registry.counter("execs") is counter
        assert registry.counter("execs").value == 5

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("corpus").set(3)
        registry.gauge("corpus").set(7)
        assert registry.gauge("corpus").value == 7

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("ns", bounds=(10, 100))
        for value in (1, 10, 11, 100, 5000):
            histogram.observe(value)
        # <=10 | <=100 | +inf
        assert histogram.buckets == [2, 2, 1]
        assert histogram.count == 5
        assert histogram.total == 5122
        assert histogram.mean == pytest.approx(1024.4)

    def test_snapshot_is_point_in_time(self):
        """Snapshot semantics: later updates never mutate a snapshot."""
        registry = MetricsRegistry()
        registry.counter("execs").inc(2)
        registry.histogram("ns", bounds=(10,)).observe(3)
        snap = registry.snapshot()
        registry.counter("execs").inc(100)
        registry.histogram("ns", bounds=(10,)).observe(99)
        assert snap["counters"]["execs"] == 2
        assert snap["histograms"]["ns"]["count"] == 1
        assert snap["histograms"]["ns"]["buckets"] == [1, 0]
        assert registry.snapshot()["counters"]["execs"] == 102

    def test_null_metrics_absorbs_everything(self):
        null = NULL_TELEMETRY.metrics
        null.counter("x").inc()
        null.gauge("y").set(9)
        null.histogram("z").observe(1)
        assert null.enabled is False
        assert null.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }


# ---------------------------------------------------------------------------
# tracer + sinks
# ---------------------------------------------------------------------------


class TestTracer:
    def test_events_stamped_with_virtual_time(self):
        clock = VirtualClock()
        sink = RingBufferSink()
        tracer = Tracer(clock, sink)
        clock.advance(123)
        tracer.event("tick", detail="a")
        clock.advance(77)
        tracer.event("tock")
        times = [e.ns for e in sink.events]
        assert times == [123, 200]
        assert sink.events[0].attrs == {"detail": "a"}

    def test_span_captures_start_and_duration(self):
        clock = VirtualClock()
        sink = RingBufferSink()
        tracer = Tracer(clock, sink)
        clock.advance(50)
        with tracer.span("stage.trim", entry=3):
            clock.advance(400)
        (event,) = sink.events
        assert event.kind == "span"
        assert event.ns == 50
        assert event.dur_ns == 400
        assert event.attrs["entry"] == 3

    def test_ring_buffer_caps_capacity(self, monkeypatch):
        monkeypatch.setattr("repro.telemetry.tracer.RING_CAPACITY", 4)
        sink = RingBufferSink()
        tracer = Tracer(VirtualClock(), sink)
        for i in range(10):
            tracer.event("e", i=i)
        assert len(sink.events) == 4
        assert sink.emitted == 10
        assert [e.attrs["i"] for e in sink.events] == [6, 7, 8, 9]

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JSONLSink(path)
        clock = VirtualClock()
        tracer = Tracer(clock, sink)
        tracer.event("boot", mechanism="closurex")
        clock.advance(10)
        tracer.span_at("exec", 2, 9, status="ok", instructions=41)
        tracer.close()
        events = read_jsonl(path)
        assert events == [
            TraceEvent("boot", 0, "event", 0, {"mechanism": "closurex"}),
            TraceEvent("exec", 2, "span", 7,
                       {"status": "ok", "instructions": 41}),
        ]

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.event("anything", x=1)
        with NULL_TRACER.span("nothing"):
            pass
        NULL_TRACER.span_at("nope", 0, 10)
        assert isinstance(NULL_TRACER.sink, NullSink)


class TestBuildTelemetry:
    def test_disabled_resolves_to_shared_null(self):
        assert build_telemetry(TelemetryConfig(), VirtualClock()) is NULL_TELEMETRY
        assert build_telemetry(None) is NULL_TELEMETRY

    def test_jsonl_requires_path(self):
        with pytest.raises(ValueError):
            build_telemetry(TelemetryConfig(enabled=True, sink="jsonl"))

    def test_unknown_sink_rejected(self):
        with pytest.raises(ValueError):
            build_telemetry(TelemetryConfig(enabled=True, sink="kafka"))


# ---------------------------------------------------------------------------
# kernel + pass-manager instrumentation
# ---------------------------------------------------------------------------


class TestKernelTracing:
    def test_lifecycle_spans_cover_charged_time(self):
        sink = RingBufferSink()
        kernel = Kernel()
        kernel.tracer = Tracer(kernel.clock, sink)
        parent = kernel.spawn("prog", 100_000)
        child = kernel.fork(parent, 1 << 20)
        kernel.reap(child, 0)
        names = [e.name for e in sink.events]
        assert names == ["kernel.spawn", "kernel.fork", "kernel.teardown"]
        spawn, fork, teardown = sink.events
        assert spawn.dur_ns == kernel.stats.spawn_ns
        assert fork.dur_ns == kernel.stats.fork_ns
        assert teardown.dur_ns == kernel.stats.teardown_ns
        assert fork.attrs == {"pid": child.pid, "parent_pid": parent.pid}
        # Spans tile the virtual timeline: each starts where charged.
        assert spawn.ns == 0
        assert spawn.ns + spawn.dur_ns == fork.ns

    def test_untraced_kernel_defaults_to_null(self):
        assert Kernel().tracer is NULL_TRACER


class TestPassTracing:
    def test_per_pass_events_with_rewrite_counts(self):
        sink = RingBufferSink()
        spec = get_target("giftext")
        module = spec.compile()
        manager = PassManager(closurex_passes(coverage_seed=1),
                              tracer=Tracer(sink=sink))
        manager.run(module)
        events = [e for e in sink.events if e.name == "pass.run"]
        assert len(events) == len(manager.passes)
        by_pass = {e.attrs["pass_name"]: e for e in events}
        assert "GlobalPass" in by_pass
        global_event = by_pass["GlobalPass"]
        assert global_event.attrs["changed"] is True
        assert global_event.attrs["wall_ns"] > 0
        assert any(k.startswith("rewrites.") for k in global_event.attrs)


# ---------------------------------------------------------------------------
# campaign integration
# ---------------------------------------------------------------------------


class TestCampaignTelemetry:
    def test_disabled_default_emits_nothing(self, monkeypatch):
        """With telemetry off (the default), no sink sees any event."""
        emitted = []
        monkeypatch.setattr(
            NullSink, "emit", lambda self, event: emitted.append(event)
        )
        campaign = _campaign()
        assert campaign.telemetry is NULL_TELEMETRY
        result = campaign.run()
        assert result.execs > 0
        assert emitted == []
        assert campaign.reporter is None
        assert campaign.executor.kernel.tracer is NULL_TRACER

    def test_exec_span_count_matches_execs(self):
        campaign = _campaign(TelemetryConfig(enabled=True, sink="memory"))
        result = campaign.run()
        sink = campaign.telemetry.tracer.sink
        exec_spans = [e for e in sink.events if e.name == "exec"]
        assert len(exec_spans) == result.execs
        assert all(e.kind == "span" for e in exec_spans)
        assert all(e.attrs["mechanism"] == "closurex" for e in exec_spans)

    def test_jsonl_trace_round_trip_matches_execs(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        campaign = _campaign(
            TelemetryConfig(enabled=True, sink="jsonl", jsonl_path=path)
        )
        result = campaign.run()
        events = read_jsonl(path)
        assert sum(1 for e in events if e.name == "exec") == result.execs
        # Events are emitted at completion, so end times never go
        # backwards on the virtual timeline (starts may interleave).
        ends = [e.ns + e.dur_ns for e in events]
        assert ends == sorted(ends)

    def test_metrics_reflect_campaign_counts(self):
        campaign = _campaign(TelemetryConfig(enabled=True, sink="memory"))
        result = campaign.run()
        snap = campaign.telemetry.metrics.snapshot()
        assert snap["counters"]["exec.total"] == result.execs
        assert snap["histograms"]["exec.instructions"]["count"] == result.execs
        status_total = sum(
            v for k, v in snap["counters"].items()
            if k.startswith("exec.status.")
        )
        assert status_total == result.execs

    def test_persistent_exec_spans_carry_pollution(self):
        campaign = _campaign(
            TelemetryConfig(enabled=True, sink="memory"),
            mechanism="persistent",
        )
        campaign.run()
        sink = campaign.telemetry.tracer.sink
        exec_spans = [e for e in sink.events if e.name == "exec"]
        assert exec_spans
        assert all("leaked_chunks" in e.attrs for e in exec_spans)
        assert all("dirty_globals" in e.attrs for e in exec_spans)


class TestReporter:
    def _reported_campaign(self, tmp_path, seed=1):
        out_dir = str(tmp_path / f"out{seed}")
        campaign = _campaign(
            TelemetryConfig(enabled=True, sink="memory",
                            report_dir=out_dir),
            seed=seed,
        )
        with pytest.MonkeyPatch.context() as patch:
            # A report every 0.5 virtual ms: a short run plots many rows.
            patch.setattr(
                "repro.telemetry.reporter.REPORT_INTERVAL_NS", 500_000
            )
            result = campaign.run()
        return campaign, result, out_dir

    def test_fuzzer_stats_snapshot_is_valid(self, tmp_path):
        campaign, result, out_dir = self._reported_campaign(tmp_path)
        stats_path = os.path.join(out_dir, "fuzzer_stats")
        assert os.path.exists(stats_path)
        stats = {}
        with open(stats_path) as handle:
            for line in handle:
                key, _, value = line.partition(":")
                stats[key.strip()] = value.strip()
        assert int(stats["execs_done"]) == result.execs
        assert int(stats["edges_found"]) == result.edges_found
        assert int(stats["corpus_count"]) == result.corpus_size
        assert int(stats["unique_crashes"]) == result.unique_crashes
        assert stats["target_mode"] == "closurex"
        assert float(stats["execs_per_sec"]) > 0

    def test_plot_data_monotone_virtual_time(self, tmp_path):
        campaign, result, out_dir = self._reported_campaign(tmp_path)
        with open(os.path.join(out_dir, "plot_data")) as handle:
            lines = handle.read().splitlines()
        assert lines[0].startswith("# relative_time")
        rows = [line.split(", ") for line in lines[1:]]
        assert len(rows) >= 2            # periodic + final flush
        times = [float(row[0]) for row in rows]
        assert times == sorted(times)
        execs = [int(row[11]) for row in rows]
        assert execs == sorted(execs)
        assert execs[-1] == result.execs

    def test_deterministic_across_identical_runs(self, tmp_path):
        """Virtual-clock stamping makes reports bit-identical (golden)."""
        _, _, dir_a = self._reported_campaign(tmp_path / "a")
        _, _, dir_b = self._reported_campaign(tmp_path / "b")
        for name in ("fuzzer_stats", "plot_data"):
            with open(os.path.join(dir_a, name)) as fa, \
                 open(os.path.join(dir_b, name)) as fb:
                assert fa.read() == fb.read(), name

    def test_render_status_one_screen(self, tmp_path):
        campaign, result, _ = self._reported_campaign(tmp_path)
        status = campaign.reporter.render_status()
        assert "repro-fuzz [closurex]" in status
        assert f"execs done : {result.execs}" in status
        assert len(status.splitlines()) <= 20

    def test_reporter_without_dir_writes_nothing(self, tmp_path):
        campaign = _campaign(TelemetryConfig(enabled=True, sink="memory"))
        result = campaign.run()
        assert campaign.reporter is not None
        assert campaign.reporter.out_dir is None
        assert campaign.reporter.plot_rows      # still collected in memory
        assert list(tmp_path.iterdir()) == []


class TestProfileReport:
    def test_counts_accumulate_when_enabled(self):
        campaign = _campaign(
            TelemetryConfig(enabled=True, sink="null", profile_vm=True)
        )
        result = campaign.run()
        executor = campaign.executor
        report = ProfileReport.from_executor(executor)
        assert report.total_instructions > 0
        assert report.total_libc_calls > 0
        hotspots = report.hotspots(top=5)
        assert len(hotspots) == 5
        assert hotspots[0].est_ns >= hotspots[-1].est_ns
        assert abs(sum(h.share for h in report.hotspots()) - 1.0) < 1e-9
        rendered = report.render(top=3)
        assert "hot spot" in rendered and hotspots[0].name in rendered

    def test_profiling_off_by_default(self):
        campaign = _campaign(TelemetryConfig(enabled=True, sink="null"))
        campaign.run()
        assert campaign.executor.opcode_counts == {}
        assert campaign.executor.libc_counts == {}
        report = ProfileReport.from_executor(campaign.executor)
        assert "no samples" in report.render()


class TestReporterCollect:
    def test_collect_matches_campaign_state_midway(self):
        campaign = _campaign(TelemetryConfig(enabled=True, sink="memory"))
        campaign.run()
        reporter = CampaignReporter(campaign)
        stats = reporter.collect()
        assert stats["execs_done"] == campaign.execs
        assert stats["corpus_count"] == len(campaign.corpus)
        assert stats["map_density"].endswith("%")
