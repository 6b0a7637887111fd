"""Static analysis over MiniIR: dataflow, summaries, pollution, lint.

The package layers on top of :mod:`repro.ir` (never the other way
around — the IR stays import-light):

- :mod:`repro.analysis.dataflow` — generic worklist solver plus
  liveness and reaching definitions, and the dead-store test they
  give.
- :mod:`repro.analysis.callgraph` — interprocedural call graph and
  per-function mod/ref + escape summaries.
- :mod:`repro.analysis.pollution` — the ClosureX pollution classifier:
  which of the four state dimensions (heap, file, global, exit) a
  target can touch, consumed by the pass pipeline and the runtime
  harness to elide provably-unnecessary work.
- :mod:`repro.analysis.dictionary` — static auto-dictionary mining
  (``icmp``/``switch``/``memcmp``-family constants) feeding the
  input-to-state mutation stage (:mod:`repro.fuzzing.i2s`).
- :mod:`repro.analysis.lint` — diagnostic lint rules with structured
  severities for CI gating.
- :mod:`repro.analysis.opt` — the analysis-driven optimizer: validated
  IR-to-IR transforms (mem2reg, SCCP, load forwarding, dead-store and
  dead-code elimination, CFG simplification) gated by translation
  validation against differential replay of the seed corpus.
"""

from repro.analysis.callgraph import (
    CallGraph,
    FunctionSummary,
    known_extern_names,
    summarise_module,
)
from repro.analysis.dataflow import (
    DataflowAnalysis,
    DataflowResult,
    Liveness,
    ReachingDefinitions,
    dead_slot_stores,
    escaping_slots,
    live_values,
    reaching_stores,
    stores_reaching,
)
from repro.analysis.dictionary import mine_dictionary_tokens
from repro.analysis.lint import Diagnostic, Linter, Severity, lint_module
from repro.analysis.pollution import (
    DIMENSION_PASSES,
    DIMENSIONS,
    DimensionFinding,
    PollutionAnalyzer,
    PollutionReport,
    analyze_pollution,
)

__all__ = [
    "CallGraph",
    "FunctionSummary",
    "known_extern_names",
    "summarise_module",
    "DataflowAnalysis",
    "DataflowResult",
    "Liveness",
    "ReachingDefinitions",
    "dead_slot_stores",
    "escaping_slots",
    "live_values",
    "reaching_stores",
    "stores_reaching",
    "mine_dictionary_tokens",
    "Diagnostic",
    "Linter",
    "Severity",
    "lint_module",
    "DIMENSION_PASSES",
    "DIMENSIONS",
    "DimensionFinding",
    "PollutionAnalyzer",
    "PollutionReport",
    "analyze_pollution",
]
