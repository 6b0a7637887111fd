"""The ten benchmark targets (paper Table 4) plus the target framework.

Importing this package does *not* compile anything.  A registered
target becomes a module only through its :class:`TargetSpec`: the
``build_*`` methods (baseline, ClosureX, naive persistent, optimized,
analysis-guided) compile the source on demand and instrument it.
"""

from repro.targets.framework import (
    PlantedBug,
    TargetSpec,
    all_targets,
    get_target,
    register_target,
    target_names,
)

#: The paper's Table 4, as data: name -> (input format, executable size).
BENCHMARKS: dict[str, tuple[str, int]] = {
    "bsdtar": ("tar", 4_700_000),
    "libpcap": ("pcap", 2_400_000),
    "gpmf-parser": ("mp4 (GoPro)", 720_000),
    "libbpf": ("bpf object", 1_900_000),
    "freetype": ("ttf", 4_600_000),
    "giftext": ("gif", 232_000),
    "zlib": ("zlib archive", 260_000),
    "libdwarf": ("ELF", 2_800),
    "c-blosc2": ("bframe", 12_000_000),
    "md4c": ("markdown", 652_000),
}

__all__ = [
    "BENCHMARKS",
    "PlantedBug",
    "TargetSpec",
    "all_targets",
    "get_target",
    "register_target",
    "target_names",
]
