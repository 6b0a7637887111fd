"""Crash recovery: the job journal and per-job checkpoint plumbing.

The durability contract of the service is: **an acknowledged job is
never lost**.  ``kill -9`` the server at any instant after a submit
response and a restart completes every accepted job with results
bit-identical to an uninterrupted run.  Two artifacts under the state
directory carry that contract:

- ``journal.jsonl`` — an append-only, fsync-per-record journal of job
  lifecycle events (``accepted`` / ``completed`` / ``quarantined``),
  canonical JSON, torn-tail tolerant exactly like the experiment
  platform's results store.  Acceptance is journaled *before* the
  submit response is sent.
- ``checkpoints/<job_id>.ckpt[.N]`` — RPRCKPT1 campaign checkpoints
  written on the service's slice cadence, with the standard CRC +
  rotation stack, so a restart resumes each in-flight job from its
  last durable instant and replays bit-identically.

Recovery replays the journal: terminal jobs are reloaded as completed
rows (their digests are the comparison baseline), accepted-but-open
jobs are re-admitted in original submission order and either resume
from their newest loadable checkpoint generation or — if none survives
(e.g. the chaos plane tore the only write) — restart from scratch,
which is digest-equivalent because campaigns are deterministic.
"""

from __future__ import annotations

import json
import os

from repro.store import AppendLog, atomic_write
from repro.store.log import canonical_line

__all__ = [
    "JobJournal", "ServiceState", "canonical_line", "poll_checkpoint_tear",
    "read_endpoint",
]

#: Where ``serve`` advertises its bound (host, port) in the state dir.
ENDPOINT_FILE = "endpoint.json"


class JobJournal:
    """Append-only fsynced lifecycle journal (see module docstring).

    A thin wrapper over :class:`repro.store.AppendLog`, which fsyncs
    every append before it returns, as the journal's protocol needs
    (journal-before-ack).
    """

    def __init__(self, path: str):
        self.path = path
        self._log = AppendLog(path)

    def append(self, record: dict) -> None:
        """Durably append one lifecycle record."""
        self._log.append(record)

    def read(self) -> list[dict]:
        """All records (empty if absent); a torn tail is dropped, the
        valid prefix is the journal's state.  Corruption *before* the
        tail raises :class:`repro.store.LogCorruption` — replaying past
        silently missing lifecycle records could double-run or lose an
        acknowledged job, so the error (with its byte offset) is
        surfaced for ``python -m repro.store fsck --repair``."""
        return self._log.read()


def read_endpoint(state_dir: str) -> tuple[str, int]:
    """The (host, port) a server over *state_dir* advertises.  Reads
    that one file and creates nothing, so a client may pass any path."""
    path = os.path.join(state_dir, ENDPOINT_FILE)
    with open(path, "r", encoding="utf-8") as handle:
        endpoint = json.load(handle)
    return endpoint["host"], int(endpoint["port"])


class ServiceState:
    """Layout of one service's state directory."""

    def __init__(self, state_dir: str):
        self.state_dir = state_dir
        self.checkpoints_dir = os.path.join(state_dir, "checkpoints")
        os.makedirs(self.checkpoints_dir, exist_ok=True)
        self.journal = JobJournal(os.path.join(state_dir, "journal.jsonl"))

    def checkpoint_path(self, job_id: str) -> str:
        """The job's RPRCKPT1 checkpoint root (rotated generations)."""
        return os.path.join(self.checkpoints_dir, f"{job_id}.ckpt")

    @property
    def endpoint_path(self) -> str:
        """Where ``serve`` advertises its bound (host, port)."""
        return os.path.join(self.state_dir, ENDPOINT_FILE)

    def write_endpoint(self, host: str, port: int) -> None:
        """Atomically advertise the listening endpoint for clients."""
        atomic_write(
            self.endpoint_path,
            json.dumps({"host": host, "port": port}).encode("utf-8"),
        )

    # -- journal replay --------------------------------------------------

    def replay(self) -> tuple[list[dict], dict[str, dict]]:
        """Replay the journal into ``(open_jobs, terminal_records)``.

        *open_jobs* are ``accepted`` records (in submission order) with
        no terminal record yet; *terminal_records* maps job_id to its
        ``completed`` / ``quarantined`` record.
        """
        accepted: dict[str, dict] = {}
        terminal: dict[str, dict] = {}
        for record in self.journal.read():
            kind = record.get("kind")
            job_id = record.get("job_id")
            if not job_id:
                continue
            if kind == "accepted":
                accepted[job_id] = record
            elif kind in ("completed", "quarantined"):
                terminal[job_id] = record
        open_jobs = [
            record for job_id, record in accepted.items()
            if job_id not in terminal
        ]
        return open_jobs, terminal


def poll_checkpoint_tear(path: str, faults=None) -> None:
    """The chaos plane's ``ckpt-torn`` site, polled after each slice-
    cadence job checkpoint: when armed, the freshly written generation
    is torn mid-file (the simulated power cut lands *after* rotation,
    so the previous generation survives exactly as the RPRCKPT1
    rotation stack promises) and the loader's CRC + fallback machinery
    is what keeps the job recoverable."""
    if faults is not None and faults.poll("ckpt-torn"):
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(max(1, size // 2))
