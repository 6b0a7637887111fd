"""Figure-style experiments.

- **E5, mechanism spectrum** (the paper's Figures 1-2 territory): the
  per-test-case cost of each execution mechanism on one target, split
  into process-management overhead vs target execution, showing the
  fresh >> forkserver >> ClosureX ~ persistent ordering.
- **E6, pass transformations** (Figures 3-5): the structural effect of
  the GlobalPass (variables relocated into ``closure_global_section``)
  and the runtime chunk-map / global-restore lifecycle for one
  iteration.
- **Campaign timelines**: execs-over-time and coverage-over-time
  series per mechanism (the usual fuzzing-evaluation line plots), read
  from paper trial 0's measurement samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.execution import build_executor
from repro.experiments.config import ExperimentConfig, paper_scheduler
from repro.experiments.stats import format_table, median, stddev
from repro.passes.global_pass import CLOSURE_GLOBAL_SECTION
from repro.runtime.harness import ClosureXHarness
from repro.sim_os import Kernel
from repro.targets import get_target


# ---------------------------------------------------------------------------
# E5: mechanism spectrum
# ---------------------------------------------------------------------------


@dataclass
class MechanismPoint:
    """One mechanism's measured per-test-case cost breakdown."""

    mechanism: str
    ns_per_exec: float             # mean over all measured execs
    management_ns_per_exec: float
    execs_measured: int
    # Per-exec distribution, matching how the paper reports trial
    # medians rather than means alone (§5.4).
    median_ns_per_exec: float = 0.0
    stddev_ns_per_exec: float = 0.0

    @property
    def management_share(self) -> float:
        return self.management_ns_per_exec / self.ns_per_exec if self.ns_per_exec else 0.0


@dataclass
class SpectrumResult:
    """The execution-mechanism spectrum figure (fresh → persistent)."""

    target: str
    points: list[MechanismPoint]

    def render(self) -> str:
        body = [
            [
                p.mechanism,
                f"{p.ns_per_exec / 1000:.1f} us",
                f"{p.median_ns_per_exec / 1000:.1f} us",
                f"{p.stddev_ns_per_exec / 1000:.1f} us",
                f"{p.management_ns_per_exec / 1000:.1f} us",
                f"{100 * p.management_share:.0f}%",
            ]
            for p in self.points
        ]
        return format_table(
            ["Mechanism", "mean/exec", "median/exec", "stddev",
             "process mgmt", "mgmt share"],
            body,
        )

    def ordering_correct(self) -> bool:
        """fresh slowest, forkserver next, ClosureX near persistent."""
        by_name = {p.mechanism: p.ns_per_exec for p in self.points}
        return (
            by_name["fresh"] > by_name["forkserver"] > by_name["closurex"]
            and by_name["closurex"] < 2.5 * by_name["persistent"]
        )


def run_spectrum(target: str = "giftext", iterations: int = 40) -> SpectrumResult:
    """Measure per-exec cost of all four mechanisms on clean seeds."""
    spec = get_target(target)
    points: list[MechanismPoint] = []
    for mechanism in ("fresh", "forkserver", "persistent", "closurex"):
        kernel = Kernel()
        executor = build_executor(target, mechanism, kernel)
        executor.boot()
        start = kernel.clock.now_ns
        mgmt_start = kernel.stats.process_management_ns()
        samples: list[float] = []
        for _ in range(iterations):
            for seed in spec.seeds:
                samples.append(executor.run(seed).ns)
        executor.shutdown()
        count = len(samples)
        total = kernel.clock.now_ns - start
        mgmt = kernel.stats.process_management_ns() - mgmt_start
        points.append(
            MechanismPoint(
                mechanism, total / count, mgmt / count, count,
                median_ns_per_exec=median(samples),
                stddev_ns_per_exec=stddev(samples),
            )
        )
    return SpectrumResult(target=target, points=points)


# ---------------------------------------------------------------------------
# E6: pass-transformation structure (Figures 3-5)
# ---------------------------------------------------------------------------


@dataclass
class GlobalPassFigure:
    """Figure 3: where did the globals go?"""

    target: str
    relocated: list[str]
    kept_constant: list[str]
    section_bytes: int

    def render(self) -> str:
        return (
            f"{self.target}: {len(self.relocated)} writable globals "
            f"({self.section_bytes} B) -> {CLOSURE_GLOBAL_SECTION}; "
            f"{len(self.kept_constant)} constants untouched"
        )


def run_global_pass_figure(target: str) -> GlobalPassFigure:
    module = get_target(target).build_closurex()
    relocated = [
        name for name, var in module.globals.items()
        if var.section == CLOSURE_GLOBAL_SECTION
    ]
    constants = [
        name for name, var in module.globals.items() if var.is_constant
    ]
    section_bytes = sum(
        module.globals[name].value_type.size() for name in relocated
    )
    return GlobalPassFigure(
        target=target,
        relocated=relocated,
        kept_constant=constants,
        section_bytes=section_bytes,
    )


@dataclass
class RestoreLifecycleFigure:
    """Figures 4-5: one iteration's snapshot/track/restore trace."""

    target: str
    dirty_global_bytes: int      # bytes the test case modified
    leaked_chunks: int           # chunk map contents before the sweep
    leaked_bytes: int
    open_handles: int            # handle map before the sweep
    restored_section_bytes: int
    clean_after_restore: bool

    def render(self) -> str:
        return (
            f"{self.target}: test case dirtied {self.dirty_global_bytes} B of "
            f"globals, leaked {self.leaked_chunks} chunks "
            f"({self.leaked_bytes} B) and {self.open_handles} handles; "
            f"restore copied {self.restored_section_bytes} B back; "
            f"clean={self.clean_after_restore}"
        )


def run_restore_lifecycle(target: str, data: bytes | None = None) -> RestoreLifecycleFigure:
    spec = get_target(target)
    module = spec.build_closurex()
    harness = ClosureXHarness(module)
    harness.boot()
    assert harness.vm is not None and harness.snapshot is not None
    payload = data if data is not None else spec.seeds[0]
    harness.run_test_case(payload, restore=False)
    dirty = len(harness.snapshot.dirty_offsets())
    leaked = harness.chunk_map.leaked()
    handles = harness.fd_tracker.leaked()
    report = harness.restore_state()
    clean = (
        harness.vm.heap.live_chunk_count() == harness.chunk_map.live_count()
        and not harness.snapshot.dirty_offsets()
    )
    return RestoreLifecycleFigure(
        target=target,
        dirty_global_bytes=dirty,
        leaked_chunks=len(leaked),
        leaked_bytes=sum(c.size for c in leaked),
        open_handles=len(handles),
        restored_section_bytes=report.section_bytes,
        clean_after_restore=clean,
    )


# ---------------------------------------------------------------------------
# campaign timelines (execs / coverage over virtual time)
# ---------------------------------------------------------------------------


@dataclass
class TimelineSeries:
    """Coverage-over-virtual-time samples for one mechanism."""

    mechanism: str
    points: list[tuple[float, int, int]]  # (virtual secs, execs, edges)


@dataclass
class TimelineFigure:
    """Coverage-timeline figure data for one target, all mechanisms."""

    target: str
    series: list[TimelineSeries] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"timeline: {self.target}"]
        for s in self.series:
            tail = s.points[-1] if s.points else (0.0, 0, 0)
            lines.append(
                f"  {s.mechanism}: {len(s.points)} samples, final "
                f"t={tail[0]:.3f}vs execs={tail[1]} edges={tail[2]}"
            )
        return "\n".join(lines)


def run_timeline(target: str, config: ExperimentConfig | None = None,
                 out: str | None = None) -> TimelineFigure:
    """Each mechanism's sample stream of paper trial 0 in *out*."""
    config = config if config is not None else ExperimentConfig()
    scheduler = paper_scheduler(config, target, out)
    scheduler.run()
    figure = TimelineFigure(target=target)
    for trial in scheduler.spec.enumerate_trials():
        if trial.trial_index == 0:
            figure.series.append(TimelineSeries(
                mechanism=trial.arm.mechanism,
                points=[
                    (record["t_ns"] / 1e9, record["execs"], record["edges"])
                    for record in scheduler.store.read(trial.trial_id)
                    if record["kind"] == "sample"
                ],
            ))
    return figure
