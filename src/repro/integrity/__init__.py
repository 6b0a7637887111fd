"""State-integrity sentinel: runtime verification of ClosureX restores.

ClosureX's headline claim is that persistent fuzzing can be *correct*:
the compiler-inserted reset code restores every polluted state
dimension between iterations.  Everything else in this repo *trusts*
that claim; this package *checks* it at runtime and heals the campaign
when it fails:

- :mod:`repro.integrity.digest` — :class:`StateDigest`, cheap
  deterministic structural digests of the four ClosureX state
  dimensions (heap chunk map, global sections, FD table, exit/setjmp
  context).
- :mod:`repro.integrity.oracle` — :class:`RestoreOracle`, captures a
  pristine post-boot baseline and compares digests after every restore
  (configurable cadence).
- :mod:`repro.integrity.ledger` — :class:`LeakLedger`, attribution,
  quarantine, and the JSONL diagnostic bundle.
- :mod:`repro.integrity.sentinel` — :class:`IntegritySentinel` +
  :class:`EscalationPolicy`: detect → targeted repair → VM respawn →
  forkserver fallback (via the existing supervised ladder).  Every
  ``shadow_every``-th exec it also replays the input in a throwaway
  fresh process (:func:`repro.runtime.replay.replay`) and compares
  status, return code, crash identity, coverage, output and the files
  the exec wrote with the persistent run, catching divergence the
  digest can't attribute.

All digest/compare/shadow work is charged to the virtual clock through
:class:`repro.sim_os.costs.CostModel` knobs, so enabling the sentinel
costs budget but never breaks determinism.

``python -m repro.analysis integrity`` self-checks restoration over
the ten built-in targets.
"""

from repro.integrity.digest import (
    DIGEST_DIMENSIONS,
    StateDigest,
    compute_digest,
    digest_cost,
)
from repro.integrity.faults import IntegrityFault
from repro.integrity.ledger import LeakEvent, LeakLedger, QuarantinedInput
from repro.integrity.oracle import IntegrityVerdict, RestoreOracle
from repro.integrity.sentinel import (
    EscalationPolicy,
    IntegritySentinel,
    SentinelStats,
)

__all__ = [
    "DIGEST_DIMENSIONS", "StateDigest", "compute_digest", "digest_cost",
    "IntegrityFault",
    "LeakEvent", "LeakLedger", "QuarantinedInput",
    "IntegrityVerdict", "RestoreOracle",
    "EscalationPolicy", "IntegritySentinel", "SentinelStats",
]
