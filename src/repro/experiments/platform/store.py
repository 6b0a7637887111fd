"""Append-only JSONL results store: one snapshot stream per trial.

Layout under the store root::

    spec.json                # the experiment's canonical spec
    trials/<trial_id>.jsonl  # one canonical-JSON record per line
    checkpoints/<trial_id>.ckpt[.N]  # RPRCKPT1 campaign checkpoints
    report.json / report.md  # written by the report generator

Each trial stream is a sequence of ``{"kind": "sample", ...}`` records
ordered by virtual time, terminated by exactly one ``{"kind": "final",
...}`` record.  Records are canonical JSON (sorted keys, no
whitespace), so the byte content of a stream — and therefore the
store's sha256 :meth:`ResultsStore.digest` — is a pure function of the
spec.

Durability is :mod:`repro.store`'s: each trial stream is an
:class:`repro.store.AppendLog` (every line flushed and fsynced,
torn-tail tolerant), the spec binding and resume truncation go
through :func:`repro.store.atomic_write`, and the whole
store therefore sits behind the disk-fault chaos seam — an ``ENOSPC``
mid-append leaves a torn tail that reads ignore and the next
successful append repairs, so a store that ran out of space resumes
cleanly once space returns.
"""

from __future__ import annotations

import hashlib
import os

from repro.store import AppendLog, StoreError, atomic_write
from repro.store.log import canonical_line

__all__ = ["ResultsStore", "StoreError", "canonical_line"]


class ResultsStore:
    """Filesystem-backed, append-only experiment results (see module
    docstring for the layout and durability story).

    Every append is flushed and fsynced before it returns, so each
    sample, and a trial's completion, is durable the moment it is
    recorded.
    """

    def __init__(self, root: str):
        self.root = root
        self.trials_dir = os.path.join(root, "trials")
        self.checkpoints_dir = os.path.join(root, "checkpoints")
        self._logs: dict[str, AppendLog] = {}
        os.makedirs(self.trials_dir, exist_ok=True)
        os.makedirs(self.checkpoints_dir, exist_ok=True)

    # -- paths ----------------------------------------------------------

    def trial_path(self, trial_id: str) -> str:
        """The trial's JSONL stream path."""
        return os.path.join(self.trials_dir, f"{trial_id}.jsonl")

    def checkpoint_path(self, trial_id: str) -> str:
        """The trial's campaign checkpoint path (RPRCKPT1 framing)."""
        return os.path.join(self.checkpoints_dir, f"{trial_id}.ckpt")

    @property
    def spec_path(self) -> str:
        """Where the canonical spec JSON lives."""
        return os.path.join(self.root, "spec.json")

    def _log(self, trial_id: str) -> AppendLog:
        log = self._logs.get(trial_id)
        if log is None:
            log = AppendLog(self.trial_path(trial_id))
            self._logs[trial_id] = log
        return log

    # -- spec binding ---------------------------------------------------

    def bind_spec(self, spec) -> None:
        """Record (or verify) which experiment this store belongs to.

        A fresh store adopts the spec; an existing one refuses a spec
        whose canonical form differs — resuming under a different
        matrix would silently mix incomparable streams.
        """
        canonical = spec.canonical_json()
        if os.path.exists(self.spec_path):
            with open(self.spec_path, "r", encoding="utf-8") as handle:
                existing = handle.read()
            if existing != canonical:
                raise StoreError(
                    f"store at {self.root!r} was created for a different "
                    "experiment spec; use a fresh --out directory"
                )
            return
        atomic_write(self.spec_path, canonical.encode("utf-8"))

    # -- appends --------------------------------------------------------

    def append(self, trial_id: str, record: dict) -> None:
        """Append one record to the trial's stream, flushed and fsynced."""
        self._log(trial_id).append(record)

    # -- reads ----------------------------------------------------------

    def read(self, trial_id: str) -> list[dict]:
        """All records of one trial stream (empty if absent).

        A trailing partial line (a crash or ``ENOSPC`` mid-append) is
        dropped rather than raised: the stream's valid prefix is the
        trial's state.
        """
        records, _damage = self._log(trial_id).scan()
        return records

    def completed(self, trial_id: str) -> bool:
        """Whether the trial's stream ends in its final record."""
        records = self.read(trial_id)
        return bool(records) and records[-1].get("kind") == "final"

    def trial_ids(self) -> list[str]:
        """Every trial with a stream on disk, name-sorted."""
        return sorted(
            name[:-len(".jsonl")]
            for name in os.listdir(self.trials_dir)
            if name.endswith(".jsonl")
        )

    # -- resume support -------------------------------------------------

    def truncate_after(self, trial_id: str, clock_ns: int) -> int:
        """Drop records with ``clock_ns`` past the given instant.

        Called before resuming a trial from a checkpoint: samples
        appended after the checkpoint was written would otherwise be
        duplicated when the resumed campaign replays past them.
        Rewrites the stream atomically; returns how many records were
        kept.
        """
        records = self.read(trial_id)
        kept = [
            record for record in records
            if record.get("clock_ns", 0) <= clock_ns
            and record.get("kind") != "final"
        ]
        self._log(trial_id).rewrite(kept)
        return len(kept)

    def reset_trial(self, trial_id: str) -> None:
        """Forget a trial entirely (stream + checkpoints): the trial
        restarts from scratch on the next scheduler pass."""
        self._logs.pop(trial_id, None)
        path = self.trial_path(trial_id)
        if os.path.exists(path):
            os.remove(path)
        prefix = os.path.basename(self.checkpoint_path(trial_id))
        for name in os.listdir(self.checkpoints_dir):
            if name == prefix or name.startswith(prefix + "."):
                os.remove(os.path.join(self.checkpoints_dir, name))

    # -- identity -------------------------------------------------------

    def digest(self) -> str:
        """sha256 over the spec and every trial stream, name-sorted.

        File order is fixed by sorting, content is canonical JSON, and
        checkpoints/reports are excluded — so two runs of the same spec
        produce the same digest regardless of scheduling order, and a
        resumed run matches an uninterrupted one.
        """
        h = hashlib.sha256()
        if os.path.exists(self.spec_path):
            with open(self.spec_path, "rb") as handle:
                h.update(handle.read())
        for trial_id in self.trial_ids():
            h.update(trial_id.encode())
            with open(self.trial_path(trial_id), "rb") as handle:
                h.update(handle.read())
        return h.hexdigest()
