"""GlobalPass: segregate writable globals into ``closure_global_section``.

Paper §4.2.2 / Figures 3-4: the pass walks every global variable in the
module and asks ``isConstant()``; every *modifiable* global is moved
into a dedicated binary section via ``setSection``.  At run time the
harness learns the section's bounds from the loader (the paper uses
``readelf``; the MiniVM loader exposes section address/size directly)
and snapshots/restores it bytewise around each test case.

Keeping truly constant data (string literals, lookup tables) out of the
section keeps the per-iteration copy small — that is the pass's whole
performance point.  The optional *restrict_to* set (from a trusted
:class:`repro.analysis.pollution.PollutionReport`) pushes the idea one
step further: writable globals the target provably never modifies stay
in their default section, shrinking the snapshot to the state that can
actually change.
"""

from __future__ import annotations

from repro.ir.module import Module
from repro.passes.base import ModulePass, PassResult

CLOSURE_GLOBAL_SECTION = "closure_global_section"


class GlobalPass(ModulePass):
    """Table 3's globals pass: move writable globals into
    :data:`CLOSURE_GLOBAL_SECTION`, which the harness snapshots at boot
    and restores per iteration."""

    name = "GlobalPass"

    def __init__(self, restrict_to: set[str] | None = None):
        # When set, only these writable globals are relocated.  It must
        # be a *proven* modified-set (closurex_passes takes it from a
        # PollutionReport with trusted_globals) — an under-approximation
        # here breaks restore correctness.
        self.restrict_to = restrict_to

    def run(self, module: Module) -> PassResult:
        result = PassResult(self.name)
        for var in module.globals.values():
            if var.is_constant:
                result.details["constants_skipped"] = (
                    result.details.get("constants_skipped", 0) + 1
                )
                continue
            if self.restrict_to is not None and var.name not in self.restrict_to:
                result.details["globals_elided"] = (
                    result.details.get("globals_elided", 0) + 1
                )
                continue
            if var.section != CLOSURE_GLOBAL_SECTION:
                var.set_section(CLOSURE_GLOBAL_SECTION)
                result.bump("globals_relocated")
        return result
