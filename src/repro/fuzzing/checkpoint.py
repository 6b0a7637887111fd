"""Crash-safe campaign checkpoint/resume.

A long campaign must survive the death of the *fuzzer* process, not
just the target's.  The checkpoint captures everything the campaign
loop's future depends on — corpus entries with their scheduling
metadata, the virgin coverage map, the triage dedup tables, the
mutator RNG state, the virtual clock, and the executor's cumulative
stats — so ``Campaign.resume(path, executor)`` continues **bit-
identically** to a run that was never interrupted: the RNG replays the
same mutation stream, the clock re-enters at the same virtual
nanosecond, and the corpus scheduler picks the same entries.

Durability rides on :mod:`repro.store`'s framed-file stack:

- **atomic writes** — tmp + fsync + ``os.replace`` + parent-directory
  fsync, so a crash mid-checkpoint leaves the previous file intact
  and the rename itself survives power loss;
- **integrity framing** — the ``RPRCKPT1`` header carries a CRC32 of
  the pickle payload, so silent on-disk corruption (bit rot, a torn
  page, a partial copy) is detected at load — with the byte offset and
  expected/actual CRC in the error — instead of surfacing as an
  arbitrary unpickling error or, worse, a subtly wrong resume;
- **rotation** — each save shifts the previous checkpoint to
  ``path.1`` (:data:`KEEP_GENERATIONS` files in all), and loading falls
  back through the generations to the newest file that passes magic +
  CRC + version, so one corrupted checkpoint costs an interval of
  progress, never the campaign.

Because the write path is :func:`repro.store.atomic_write`, campaign
checkpoints also sit behind the disk-fault chaos seam
(``FaultPlan.DISK_SITES``): torn writes, ``ENOSPC``, fsync ``EIO``,
lost renames, and bit flips inject here without checkpoint-specific
hooks.

Executor process state (booted VMs, harness snapshots) is *not*
serialised: on resume the executor re-boots and the clock is then
pinned back to the checkpointed instant.  For every correct mechanism
this is exact — each test case starts from fresh-process state by
construction — and it keeps checkpoints small and mechanism-agnostic.
(The naive persistent executor's cross-input pollution is the one
thing resume cannot reconstruct; that mechanism is broken by design.)
"""

from __future__ import annotations

import dataclasses
import pickle

from repro.store.errors import FrameError
from repro.store.framed import generations_on_disk, read_framed, write_framed

CHECKPOINT_VERSION = 2
CHECKPOINT_MAGIC = b"RPRCKPT1"
#: Generations kept on disk: the live file plus ``path.1``.
KEEP_GENERATIONS = 2


class CheckpointError(RuntimeError):
    """Unreadable, truncated, or incompatible checkpoint file."""


def capture_state(campaign) -> dict:
    """One consistent snapshot of everything resume needs."""
    executor = campaign.executor
    return {
        "version": CHECKPOINT_VERSION,
        "kind": "campaign",
        "mechanism": executor.mechanism,
        "seed": campaign.config.seed,
        "shard_id": campaign.config.shard_id,
        "budget_ns": campaign.config.budget_ns,
        "start_ns": campaign.start_ns,
        "clock_ns": campaign.clock.now_ns,
        "execs": campaign.execs,
        "current_entry_id": campaign.current_entry_id,
        "rng_state": campaign.rng.getstate(),
        "corpus": campaign.corpus,
        "virgin": campaign.virgin,
        "triage": campaign.triage,
        "executor_state": executor.snapshot_state(),
        # Input-to-state stage state + per-stage efficacy accounts.
        "i2s": campaign._i2s.snapshot() if campaign._i2s else None,
        "stage_stats": {
            name: dataclasses.replace(stats)
            for name, stats in campaign.stage_stats.items()
        },
    }


def save_checkpoint(campaign, path: str) -> None:
    """Atomically persist *campaign*'s state to *path*.

    Keeps :data:`KEEP_GENERATIONS` generations: the fresh file at
    *path* and the previous one at ``path.1``.
    """
    save_state(capture_state(campaign), path)


def save_state(state: dict, path: str) -> None:
    """Persist an arbitrary checkpoint state dict with the full
    ``RPRCKPT1`` durability stack (atomic write + parent-dir fsync,
    CRC framing, rotation — all via :mod:`repro.store`).  *state* must
    carry ``version`` (and a ``kind`` so loaders can tell campaign and
    parallel checkpoints apart); the single-campaign and multi-shard
    checkpoints share this framing.
    """
    body = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    write_framed(path, CHECKPOINT_MAGIC, body, keep=KEEP_GENERATIONS)


def _load_one(path: str) -> dict:
    """Read and fully validate a single checkpoint file.

    Framing failures (bad magic, truncation, CRC mismatch) re-raise
    the store's :class:`FrameError` as :class:`CheckpointError`, so
    messages carry the byte offset and expected/actual CRC.
    """
    try:
        body = read_framed(path, CHECKPOINT_MAGIC)
    except FrameError as error:
        raise CheckpointError(f"checkpoint {error}")
    try:
        state = pickle.loads(body)
    except Exception as error:  # truncated/corrupt pickle stream
        raise CheckpointError(f"corrupt checkpoint {path!r}: {error}")
    if not isinstance(state, dict):
        # A payload can pass magic + CRC yet unpickle to the wrong
        # shape (e.g. a stray file that happened to be framed); that is
        # corruption too, not a reason to blow up with AttributeError.
        raise CheckpointError(
            f"checkpoint {path!r} payload is {type(state).__name__}, "
            "not a state dict"
        )
    if state.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {state.get('version')} != {CHECKPOINT_VERSION}"
            f" in {path!r}"
        )
    return state


def load_checkpoint(path: str) -> dict:
    """Load the newest valid checkpoint generation rooted at *path*, a
    single campaign's or a fleet's (their ``kind`` tells them apart).

    Tries *path* first, then ``path.1``, ``path.2``, ... — returning
    the first generation that passes magic + CRC + version.  Every
    failure mode — unreadable file, bad magic, CRC mismatch, corrupt
    pickle, wrong payload shape, version skew — surfaces as a
    :class:`CheckpointError` carrying the byte offset (and, for
    checksum failures, the expected/actual CRC32) of the damage; when
    *all* generations fail, the raised error names every generation
    tried with its individual reason, so an operator can see at a
    glance which files were consulted.
    """
    failures: list[str] = []
    tried = generations_on_disk(path)
    for candidate in tried:
        try:
            return _load_one(candidate)
        except CheckpointError as error:
            failures.append(str(error))
    raise CheckpointError(
        f"no loadable checkpoint generation (tried {', '.join(tried)}): "
        + "; ".join(failures)
    )
