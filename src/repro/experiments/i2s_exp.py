"""I2S guard-cracking experiment: time-to-guarded-edge, I2S vs havoc.

Magic-byte and length-field guards are where plain havoc stalls: a
32-bit magic is a 1-in-2^32 lottery per mutation, but one observed
``icmp`` tells the input-to-state stage the winning value outright.
This experiment quantifies that on the repo's guard-bearing targets.

Method, per target:

1. Pick the **campaign seeds** — usually the target's stock corpus;
   for freetype, version-corrupted fonts modelling the common
   weak-seed scenario (fuzzing a format without a valid corpus, where
   the file magic guards the whole parser).
2. Build a **witness** input that passes a guard those seeds never
   satisfy (the byte-swapped pcap magic, the ``GIF87a`` signature, a
   valid sfnt version).
3. Build a **decoy**: the same input with the guard value broken — a
   *near miss* that evaluates the guard and fails it.  Short-circuit
   ``&&`` lowering means "evaluated the second compare" edges are
   witness-unique w.r.t. the seeds yet reachable by any near miss;
   subtracting the decoy's cells removes them, leaving only edges that
   genuinely require the guard to hold.
4. Compute the guard's **cells**: coverage-map cells the witness hits
   that neither the campaign seeds nor the decoy hit.  Every input
   runs twice at different virtual instants and only cells stable
   across both runs count, so PRNG-dependent paths (targets seeding
   ``rand`` from the clock) cannot contaminate the cell set.
5. Run paired campaigns — havoc-only vs I2S-enabled, same seed, same
   virtual budget — and record the first virtual instant a corpus
   entry's coverage signature touches any guard cell (censored at the
   budget when none does).

The acceptance criterion is the issue's: on at least three targets the
I2S arm reaches the guarded edge within half the virtual time the
havoc-only arm needs.  ``benchmarks/test_i2s_guards.py`` runs this and
commits the rendered report under ``benchmarks/results/``.

Guards that do NOT make clean rows, and why (measured, not guessed):

- freetype's version check *from the stock seeds* has no
  discriminating edge: MiniC lowers ``&&`` through a result slot, so
  the accept and reject paths share every block-to-block edge and the
  sole divergence (the slot branch) is already seeded by the valid
  corpus.  Hence the weak-seed framing above, where the accept-side
  parser is unseeded and every post-guard edge discriminates.
- zlib's stored-block checks alias under truncation: the oversized-
  block edge (``off + len > input_len``) is reachable by simply
  truncating a seed's payload — the seed's own valid ``len/~len``
  pair does the rest — so havoc reaches it in under a millisecond and
  the edge says nothing about solving the two-field complement
  constraint.  The deeper ``len > 512`` check needs a 519-byte input
  and censors both arms.
- bsdtar's checksum compares a *decoded* octal sum, so no byte
  encoding of either operand appears in the input: not I2S-encodable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.execution import build_executor
from repro.experiments.config import ExperimentConfig
from repro.experiments.stats import format_table, median
from repro.fuzzing.campaign import Campaign, CampaignConfig
from repro.fuzzing.coverage import coverage_signature, hit_cells
from repro.sim_os.kernel import Kernel
from repro.targets import get_target


@dataclass(frozen=True)
class GuardSpec:
    """One guarded edge to race: what to crack, starting from where."""

    #: Human-readable guard label for the report table.
    guard: str
    #: witness(spec) -> input passing the guard.
    witness: object
    #: decoy(spec) -> near-miss input evaluating and failing the guard.
    decoy: object
    #: campaign_seeds(spec) -> seed corpus both arms fuzz from
    #: (defaults to the target's stock seeds when None).
    campaign_seeds: object = None

    def seeds(self, spec) -> list[bytes]:
        if self.campaign_seeds is None:
            return list(spec.seeds)
        return self.campaign_seeds(spec)


def _pcap_witness(spec) -> bytes:
    """A byte-swapped pcap capture (magic bytes ``a1 b2 c3 d4``).

    Everything but the magic is a field-wise big-endian re-encoding of
    a seed capture — same packets, same caplens — so the only cells
    the witness can add over the seeds are the swapped-read branches,
    and those are reachable *only* once the exact 4-byte magic holds.
    """
    return _be_pcap(0xD4C3B2A1)


def _pcap_decoy(spec) -> bytes:
    """The byte-swapped capture with its magic zeroed: same bytes
    everywhere else, fails the dispatch, absorbs any near-miss edge."""
    return _be_pcap(0)


def _be_pcap(magic: int) -> bytes:
    from repro.targets.libpcap import _ethernet_ipv4

    out = struct.pack("<I", magic)
    out += struct.pack(">HHiIII", 2, 4, 0, 0, 256, 1)
    for payload in (_ethernet_ipv4(6), _ethernet_ipv4(17)):
        out += struct.pack(">IIII", 0, 0, len(payload), len(payload))
        out += payload
    return out


def _giftext_witness(spec) -> bytes:
    """A seed GIF re-signed as GIF87a (seeds are all GIF89a).

    The seeds themselves are the natural near miss — ``GIF89a``
    matches the first four signature bytes and fails at the fifth — so
    the decoy only has to absorb the "not a GIF at all" reject path.
    """
    return b"GIF87a" + spec.seeds[0][6:]


def _giftext_decoy(spec) -> bytes:
    return b"\x00IF87a" + spec.seeds[0][6:]


def _freetype_witness(spec) -> bytes:
    """A stock (version-valid) seed font: every cell past the version
    guard discriminates, because the campaign seeds are corrupted."""
    return spec.seeds[0]


def _freetype_decoy(spec) -> bytes:
    """A near-miss version (0x00020000): evaluates both compares of
    the version check and fails, like the corrupted campaign seeds."""
    return b"\x00\x02\x00\x00" + spec.seeds[0][4:]


def _freetype_campaign_seeds(spec) -> list[bytes]:
    """The stock fonts with their sfnt version stomped: a weak-seed
    corpus where the 4-byte version magic guards the whole parser."""
    return [b"\xde\xad\xbe\xef" + seed[4:] for seed in spec.seeds]


#: target name -> guarded edge to race.
GUARD_TARGETS: dict[str, GuardSpec] = {
    "libpcap": GuardSpec(
        guard="byte-swapped magic 0xd4c3b2a1",
        witness=_pcap_witness,
        decoy=_pcap_decoy,
    ),
    "giftext": GuardSpec(
        guard="GIF87a signature",
        witness=_giftext_witness,
        decoy=_giftext_decoy,
    ),
    "freetype": GuardSpec(
        guard="sfnt version magic (weak seeds)",
        witness=_freetype_witness,
        decoy=_freetype_decoy,
        campaign_seeds=_freetype_campaign_seeds,
    ),
}


def _stable_cells(executor, data: bytes) -> set[int]:
    """Cells hit by *data* in two runs at different virtual instants.

    The intersection drops any cell whose reachability depends on the
    virtual clock (targets seeding a PRNG from ``time()``).
    """
    def cells() -> set[int]:
        return set(hit_cells(coverage_signature(executor.run(data).coverage)))

    return cells() & cells()


def guard_cells(target: str) -> set[int]:
    """Coverage cells unique to the target's witness input.

    Subtracts both the campaign seeds' cells and the decoy's
    (near-miss) cells, so every returned cell requires the guard to
    actually hold.  Uses the ClosureX executor — the same module build
    the campaigns run — so cell indices line up with campaign coverage
    signatures.
    """
    guard = GUARD_TARGETS[target]
    spec = get_target(target)
    executor = build_executor(target, "closurex", Kernel())
    executor.boot()
    baseline: set[int] = set()
    for seed in guard.seeds(spec):
        baseline |= _stable_cells(executor, seed)
    baseline |= _stable_cells(executor, guard.decoy(spec))
    witness_cells = _stable_cells(executor, guard.witness(spec))
    executor.shutdown()
    cells = witness_cells - baseline
    if not cells:
        raise RuntimeError(
            f"{target}: witness for {guard.guard!r} hits no cell the "
            "seeds and decoy miss"
        )
    return cells


def time_to_guard(target: str, cells: set[int], seed: int, budget_ns: int,
                  i2s: bool) -> int:
    """Virtual ns until a corpus entry touches a guard cell (censored
    at *budget_ns* when the campaign never reaches one)."""
    guard = GUARD_TARGETS[target]
    spec = get_target(target)
    executor = build_executor(target, "closurex", Kernel())
    config = CampaignConfig(
        budget_ns=budget_ns, seed=seed, i2s_enabled=i2s,
    )
    campaign = Campaign(executor, guard.seeds(spec), config)
    campaign.run()
    start = campaign.start_ns
    best: int | None = None
    for entry in campaign.corpus.entries:
        if not cells.isdisjoint(hit_cells(entry.coverage_signature)):
            at = entry.discovered_at_ns - start
            if best is None or at < best:
                best = at
    return best if best is not None else budget_ns


@dataclass
class I2SGuardRow:
    """One target's paired time-to-guard measurements."""

    target: str
    guard: str
    havoc_ns: list[int] = field(default_factory=list)
    i2s_ns: list[int] = field(default_factory=list)
    budget_ns: int = 0

    def median_ns(self, arm: str) -> float:
        times = self.havoc_ns if arm == "havoc" else self.i2s_ns
        return median([float(t) for t in times])

    @property
    def criterion_met(self) -> bool:
        """I2S reached the guard in <= 50% of havoc's virtual time."""
        return self.median_ns("i2s") <= 0.5 * self.median_ns("havoc")

    def cell(self, arm: str) -> str:
        value = self.median_ns(arm)
        if value >= self.budget_ns:
            return f">= {value / 1e6:.1f}ms (censored)"
        return f"{value / 1e6:.2f}ms"


@dataclass
class I2SGuardResult:
    """The full report: one row per guard-bearing target."""

    rows: list[I2SGuardRow]
    trials: int
    budget_ns: int

    @property
    def targets_met(self) -> int:
        return sum(row.criterion_met for row in self.rows)

    def render(self) -> str:
        body = [
            [
                row.target,
                row.guard,
                row.cell("havoc"),
                row.cell("i2s"),
                "yes" if row.criterion_met else "no",
            ]
            for row in self.rows
        ]
        table = format_table(
            ["Target", "Guard", "Havoc median", "I2S median", "<=50%"],
            body,
        )
        summary = (
            f"\ncriterion (I2S <= 50% of havoc time-to-guard) met on "
            f"{self.targets_met}/{len(self.rows)} targets "
            f"({self.trials} trials, {self.budget_ns / 1e6:.0f}ms budget)"
        )
        return table + summary


def run_i2s_guards(config: ExperimentConfig | None = None,
                   targets: tuple[str, ...] | None = None) -> I2SGuardResult:
    """Run the paired time-to-guard comparison on every guard target."""
    config = config if config is not None else ExperimentConfig()
    selected = list(targets if targets is not None else GUARD_TARGETS)
    rows: list[I2SGuardRow] = []
    for target in selected:
        guard = GUARD_TARGETS[target]
        cells = guard_cells(target)
        row = I2SGuardRow(
            target=target, guard=guard.guard, budget_ns=config.budget_ns
        )
        for trial in range(config.trials):
            seed = config.trial_seed(target, trial)
            row.havoc_ns.append(
                time_to_guard(target, cells, seed, config.budget_ns, False)
            )
            row.i2s_ns.append(
                time_to_guard(target, cells, seed, config.budget_ns, True)
            )
        rows.append(row)
    return I2SGuardResult(
        rows=rows, trials=config.trials, budget_ns=config.budget_ns
    )
