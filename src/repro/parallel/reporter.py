"""Merged fleet-level stats for parallel campaigns.

The orchestrator can't reuse :class:`CampaignReporter` directly — that
class snapshots one live campaign, and the fleet's campaigns live
behind a transport — so this reporter aggregates the
:class:`RoundReport` stream the sync barriers already carry and
materialises the same AFL ``fuzzer_stats`` / ``plot_data`` dialect via
:func:`repro.telemetry.write_stats_files`.  Per-worker stats
directories (``worker_N/``) come for free when
``ParallelConfig.per_worker_reports`` is on: each shard's own
:class:`CampaignReporter` writes them from inside the worker.

All time quantities are in **virtual** seconds of the shared round
schedule, so the merged ``plot_data`` is deterministic and directly
comparable across runs and worker counts.
"""

from __future__ import annotations

from repro.telemetry import write_stats_files
from repro.vm.interpreter import COVERAGE_MAP_SIZE

MERGED_PLOT_HEADER = (
    "# relative_time, round, corpus_count, global_edges, unique_crashes, "
    "unique_hangs, total_execs, execs_per_sec, imports_delivered, "
    "imports_pending"
)


class ParallelReporter:
    """Writes one aggregate ``fuzzer_stats``/``plot_data`` pair."""

    def __init__(self, out_dir: str, config):
        self.out_dir = out_dir
        self.config = config
        self.plot_rows: list[str] = []

    def barrier(self, round_index: int, reports, hub) -> None:
        """Record one sync barrier's merged snapshot."""
        clock_ns = max(r.clock_ns for r in reports)
        execs = sum(r.execs for r in reports)
        corpus = sum(r.corpus_size for r in reports)
        crashes = sum(r.unique_crashes for r in reports)
        hangs = sum(r.unique_hangs for r in reports)
        vseconds = clock_ns / 1e9
        rate = f"{execs / vseconds:.2f}" if clock_ns else "0.00"
        self.plot_rows.append(
            f"{vseconds:.6f}, {round_index}, {corpus}, "
            f"{hub.virgin.edges_found()}, {crashes}, {hangs}, {execs}, "
            f"{rate}, {hub.stats.delivered}, {hub.pending()}"
        )
        self._write(round_index, reports, hub)

    def finalize(self, result) -> None:
        """Overwrite the stats file with the final merged result."""
        stats = {
            "target": result.target,
            "target_mode": result.mechanism,
            "n_workers": result.n_workers,
            "seed": result.seed,
            "run_time": f"{result.budget_ns / 1e9:.6f}",
            "sync_interval": f"{result.sync_every_ns / 1e9:.6f}",
            "rounds_done": result.rounds,
            "execs_done": result.total_execs,
            "execs_per_sec": f"{result.aggregate_execs_per_vsecond:.2f}",
            "corpus_count": len(result.corpus_hashes),
            "edges_found": result.merged_edges,
            "map_density": (
                f"{100.0 * result.merged_edges / COVERAGE_MAP_SIZE:.2f}%"
            ),
            "unique_crashes": result.merged_unique_crashes,
            "unique_hangs": result.merged_unique_hangs,
            "sync_offered": result.sync.offered,
            "sync_accepted": result.sync.accepted,
            "sync_duplicates": result.sync.duplicates,
            "sync_stale": result.sync.stale,
            "sync_delivered": result.sync.delivered,
            "worker_replacements": result.replacements,
            "command_line": (
                f"repro.fuzzing --target {result.target} "
                f"--workers {result.n_workers} --seed {result.seed}"
            ),
        }
        write_stats_files(
            self.out_dir, stats, self.plot_rows, MERGED_PLOT_HEADER
        )

    def _write(self, round_index: int, reports, hub) -> None:
        clock_ns = max(r.clock_ns for r in reports)
        execs = sum(r.execs for r in reports)
        stats = {
            "target": self.config.target,
            "target_mode": self.config.mechanism,
            "n_workers": self.config.n_workers,
            "seed": self.config.seed,
            "run_time": f"{clock_ns / 1e9:.6f}",
            "rounds_done": round_index,
            "execs_done": execs,
            "corpus_count": sum(r.corpus_size for r in reports),
            "edges_found": hub.virgin.edges_found(),
            "unique_crashes": sum(r.unique_crashes for r in reports),
            "unique_hangs": sum(r.unique_hangs for r in reports),
            "sync_accepted": hub.stats.accepted,
            "sync_delivered": hub.stats.delivered,
            "imports_pending": hub.pending(),
        }
        write_stats_files(
            self.out_dir, stats, self.plot_rows, MERGED_PLOT_HEADER
        )
