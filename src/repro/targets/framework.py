"""Target framework: specs, builds, registry, bug manifests.

Each benchmark target is a MiniC program mirroring one of the paper's
Table 4 subjects: same input format, comparable structure (format
gates, record iteration, global state, dynamic allocation, early
``exit()`` paths), and — for the four programs where the paper found
0-days — planted bugs whose types match Table 7's rows.

A :class:`TargetSpec` is the one place a registered target becomes a
module: each build compiles the source and runs one of the three pass
lists of :mod:`repro.passes.pipelines` over it, then, when asked, the
validated optimizer.  All builds of a target share a coverage seed
derived from its name, so their edge ids agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.analysis.pollution import PollutionAnalyzer, PollutionReport
from repro.ir.module import Module
from repro.minic import compile_c
from repro.passes.base import ModulePass, PassManager
from repro.passes.pipelines import (
    baseline_passes,
    closurex_passes,
    persistent_passes,
)
from repro.vm.errors import TrapKind


@dataclass(frozen=True)
class PlantedBug:
    """Manifest entry for one intentionally introduced bug."""

    bug_id: str
    description: str
    trap_kind: TrapKind
    function: str           # crash-site function name (dedup identity)
    table7_label: str       # bug-type string as printed in Table 7

    def matches(self, identity: tuple[TrapKind, str, str]) -> bool:
        kind, function, _block = identity
        return kind is self.trap_kind and function == self.function


@dataclass
class TargetSpec:
    """One benchmark target (a row of the paper's Table 4)."""

    name: str
    input_format: str
    image_bytes: int
    source: str
    seeds: list[bytes]
    bugs: list[PlantedBug] = field(default_factory=list)
    extra_allocators: dict[str, str] | None = None
    description: str = ""

    @property
    def coverage_seed(self) -> int:
        seed = 0
        for ch in self.name.encode():
            seed = (seed * 131 + ch) & 0x7FFFFFFF
        return seed

    # -- builds ---------------------------------------------------------

    def compile(self) -> Module:
        """Compile the raw (uninstrumented) module."""
        return compile_c(self.source, self.name)

    def build_baseline(self, optimize: bool = False) -> Module:
        """AFL++-style build: coverage instrumentation only."""
        return self._build(baseline_passes(self.coverage_seed), optimize)

    def build_closurex(self, skip: set[str] | None = None,
                       optimize: bool = False) -> Module:
        """Full ClosureX instrumentation; *skip* drops passes (ablation)."""
        return self._build(
            closurex_passes(self.coverage_seed, self.extra_allocators, skip),
            optimize,
        )

    def build_persistent(self, optimize: bool = False) -> Module:
        """Naive persistent-mode build (renamed entry, no tracking)."""
        return self._build(persistent_passes(self.coverage_seed), optimize)

    def _build(self, passes: list[ModulePass], optimize: bool) -> Module:
        module = self.compile()
        PassManager(passes).run(module)
        if optimize:
            self._optimize(module)
        return module

    def build_optimized(self):
        """ClosureX build run through the validated optimizer.

        Returns the module and the
        :class:`~repro.analysis.opt.optimizer.OptimizationReport`
        describing what was applied, rejected, and replayed.
        """
        module = self.build_closurex()
        return module, self._optimize(module)

    def _optimize(self, module: Module):
        # Lazy import: repro.analysis.opt replays modules through the
        # VM/harness stack, which imports this package for builds.
        from repro.analysis.opt import optimize_module

        return optimize_module(
            module,
            seeds=tuple(self.seeds),
            extra_allocators=self.extra_allocators,
        )

    def build_analyzed(self) -> tuple[Module, PollutionReport]:
        """Analysis-guided ClosureX build: passes for provably clean
        state dimensions are elided, and (with a trusted report) only
        modified globals are relocated.  Returns the instrumented
        module *and* the report, which the runtime harness consumes to
        skip the matching restore sweeps."""
        module = self.compile()
        report = PollutionAnalyzer(
            module, extra_allocators=self.extra_allocators
        ).run()
        PassManager(closurex_passes(
            self.coverage_seed, self.extra_allocators, report=report,
        )).run(module)
        return module, report

    # -- metadata ---------------------------------------------------------

    def find_bug(self, identity: tuple[TrapKind, str, str]) -> PlantedBug | None:
        for bug in self.bugs:
            if bug.matches(identity):
                return bug
        return None


_REGISTRY: dict[str, TargetSpec] = {}


def register_target(spec: TargetSpec) -> TargetSpec:
    if spec.name in _REGISTRY:
        raise ValueError(f"duplicate target {spec.name!r}")
    _REGISTRY[spec.name] = spec
    return spec


def get_target(name: str) -> TargetSpec:
    _ensure_loaded()
    return _REGISTRY[name]


def all_targets() -> list[TargetSpec]:
    _ensure_loaded()
    return list(_REGISTRY.values())


def target_names() -> list[str]:
    _ensure_loaded()
    return list(_REGISTRY)


@lru_cache(maxsize=1)
def _ensure_loaded() -> bool:
    """Import the ten target modules, populating the registry."""
    from repro.targets import (  # noqa: F401
        bsdtar,
        c_blosc2,
        freetype,
        giftext,
        gpmf_parser,
        libbpf,
        libdwarf,
        libpcap,
        md4c,
        zlib_target,
    )
    return True
