"""AFL-compatible campaign reporting: ``fuzzer_stats``, ``plot_data``,
and a one-screen status view.

AFL's on-disk stats protocol is the lingua franca of fuzzing-campaign
tooling (afl-plot, FuzzBench's runners, casr-afl all parse it), so the
reporter materialises the same two files — with every time quantity in
**virtual** seconds, because that is the clock the whole simulator runs
on.  ``fuzzer_stats`` is rewritten in place at each update;
``plot_data`` is an append-only time series whose ``relative_time``
column is monotonically increasing by construction (the virtual clock
never goes backwards).

The reporter is driven by the campaign loop at a fixed virtual
interval (:data:`REPORT_INTERVAL_NS`); it holds no wall
clocks and performs no I/O unless a ``report_dir`` was configured, so
runs stay bit-for-bit reproducible.
"""

from __future__ import annotations

import os

from repro.vm.interpreter import COVERAGE_MAP_SIZE

#: Virtual ns between two reporter updates.
REPORT_INTERVAL_NS = 5_000_000

PLOT_HEADER = (
    "# relative_time, cycles_done, cur_item, corpus_count, pending_total, "
    "pending_favs, map_size, unique_crashes, unique_hangs, max_depth, "
    "execs_per_sec, total_execs, edges_found"
)


def write_stats_files(out_dir: str, stats: dict[str, object],
                      plot_rows: list[str], plot_header: str) -> None:
    """Materialise one AFL-style ``fuzzer_stats`` + ``plot_data`` pair.

    Shared by the per-campaign :class:`CampaignReporter` and the
    parallel orchestrator's merged reporter, so every stats directory
    in the tree — single campaign, per-worker shard, or aggregate —
    speaks the same on-disk dialect.
    """
    os.makedirs(out_dir, exist_ok=True)
    width = max(len(k) for k in stats)
    lines = [f"{key.ljust(width)} : {value}" for key, value in stats.items()]
    with open(os.path.join(out_dir, "fuzzer_stats"), "w",
              encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    with open(os.path.join(out_dir, "plot_data"), "w",
              encoding="utf-8") as handle:
        handle.write(plot_header + "\n")
        handle.write("\n".join(plot_rows) + "\n")


class CampaignReporter:
    """Periodic AFL-style stats materialisation for one campaign."""

    def __init__(self, campaign, out_dir: str | None = None):
        self.campaign = campaign
        self.out_dir = out_dir
        self.start_ns = campaign.clock.now_ns
        self.updates = 0
        self.plot_rows: list[str] = []
        self._next_ns = self.start_ns
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------

    def collect(self) -> dict[str, object]:
        """One consistent snapshot of the campaign, AFL key names."""
        campaign = self.campaign
        executor = campaign.executor
        entries = campaign.corpus.entries
        elapsed_ns = campaign.clock.now_ns - self.start_ns
        execs = campaign.execs
        pending = sum(1 for e in entries if e.times_selected == 0)
        pending_favs = sum(
            1 for e in entries if e.favored and e.times_selected == 0
        )
        edges = campaign.virgin.edges_found()
        pollution = getattr(executor, "pollution", None)
        if pollution is not None and execs:
            stability = 100.0 * (
                1.0 - pollution.dirty_global_iterations / execs
            )
        else:
            stability = 100.0
        supervision = getattr(executor, "supervision", None)
        stats = {
            "start_time": f"{self.start_ns / 1e9:.6f}",
            "last_update": f"{campaign.clock.now_ns / 1e9:.6f}",
            "run_time": f"{elapsed_ns / 1e9:.6f}",
            "fuzzer_pid": 0,
            "cycles_done": min(
                (e.times_selected for e in entries), default=0
            ),
            "cur_item": campaign.current_entry_id,
            "execs_done": execs,
            "execs_per_sec": (
                f"{execs / (elapsed_ns / 1e9):.2f}" if elapsed_ns else "0.00"
            ),
            "corpus_count": len(entries),
            "corpus_favored": campaign.corpus.favored_count(),
            "pending_total": pending,
            "pending_favs": pending_favs,
            "max_depth": max((e.depth for e in entries), default=0),
            "unique_crashes": campaign.triage.unique_count,
            "total_crashes": campaign.triage.total_crashes,
            "unique_hangs": campaign.triage.unique_hang_count,
            "total_hangs": campaign.triage.total_hangs,
            "respawns": executor.stats.respawns,
            "edges_found": edges,
            "map_density": f"{100.0 * edges / COVERAGE_MAP_SIZE:.2f}%",
            "stability": f"{stability:.2f}%",
            "target_mode": executor.mechanism,
            "shard_id": getattr(campaign.config, "shard_id", 0),
            "command_line": f"repro-fuzz --mechanism {executor.mechanism}",
        }
        if supervision is not None:
            stats["recoveries"] = supervision.recoveries
            stats["retries"] = supervision.retries
            stats["quarantined"] = supervision.quarantined_inputs
            stats["degradations"] = supervision.degradations
        return stats

    # ------------------------------------------------------------------
    # periodic update protocol (virtual-time driven)
    # ------------------------------------------------------------------

    def maybe_update(self) -> bool:
        if self.campaign.clock.now_ns < self._next_ns:
            return False
        self.update()
        return True

    def update(self) -> None:
        stats = self.collect()
        self.plot_rows.append(self._plot_row(stats))
        self.updates += 1
        self._next_ns = self.campaign.clock.now_ns + REPORT_INTERVAL_NS
        if self.out_dir is not None:
            self._write_files(stats)

    def finalize(self) -> None:
        """Final snapshot at campaign end (always emitted)."""
        self.update()

    def _plot_row(self, stats: dict[str, object]) -> str:
        return (
            f"{stats['run_time']}, {stats['cycles_done']}, "
            f"{stats['cur_item']}, {stats['corpus_count']}, "
            f"{stats['pending_total']}, {stats['pending_favs']}, "
            f"{stats['map_density']}, {stats['unique_crashes']}, "
            f"{stats['unique_hangs']}, {stats['max_depth']}, "
            f"{stats['execs_per_sec']}, {stats['execs_done']}, "
            f"{stats['edges_found']}"
        )

    def _write_files(self, stats: dict[str, object]) -> None:
        write_stats_files(self.out_dir, stats, self.plot_rows, PLOT_HEADER)

    # ------------------------------------------------------------------
    # one-screen status UI
    # ------------------------------------------------------------------

    def render_status(self) -> str:
        """afl-fuzz-flavoured single-screen text summary."""
        stats = self.collect()
        title = f" repro-fuzz [{stats['target_mode']}] "
        rule = "+" + title.center(62, "-") + "+"
        rows = [
            ("run time (virtual)", f"{stats['run_time']} s",
             "execs done", f"{stats['execs_done']}"),
            ("exec speed", f"{stats['execs_per_sec']}/vs",
             "cycles done", f"{stats['cycles_done']}"),
            ("corpus count", f"{stats['corpus_count']} "
             f"({stats['corpus_favored']} favored)",
             "pending favs", f"{stats['pending_favs']}"),
            ("edges found", f"{stats['edges_found']} "
             f"({stats['map_density']} of map)",
             "max depth", f"{stats['max_depth']}"),
            ("unique crashes", f"{stats['unique_crashes']}",
             "hangs", f"{stats['unique_hangs']}"),
            ("respawns", f"{stats['respawns']}",
             "stability", f"{stats['stability']}"),
        ]
        lines = [rule]
        for left_key, left_val, right_key, right_val in rows:
            left = f"{left_key} : {left_val}".ljust(38)
            right = f"{right_key} : {right_val}"
            lines.append(f"| {(left + right).ljust(60)} |")
        lines.append("+" + "-" * 62 + "+")
        return "\n".join(lines)
