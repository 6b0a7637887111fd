"""Tests for the benchmark targets: registry integrity, build health,
seed behaviour, and Table 4 consistency."""

import hashlib

import pytest

from repro.ir import cfg, print_module, verify_module
from repro.passes.global_pass import CLOSURE_GLOBAL_SECTION
from repro.passes.rename_main import TARGET_MAIN
from repro.runtime.harness import IterationStatus
from repro.targets import BENCHMARKS, all_targets, get_target, target_names
from tests.helpers import run_fresh


class TestRegistry:
    def test_exactly_ten_targets(self):
        assert len(all_targets()) == 10

    def test_names_match_table4(self):
        assert set(target_names()) == set(BENCHMARKS)

    def test_table4_formats_and_sizes(self):
        for spec in all_targets():
            input_format, image_bytes = BENCHMARKS[spec.name]
            assert spec.input_format == input_format
            assert spec.image_bytes == image_bytes

    def test_bug_manifest_matches_table7(self):
        expected = {"c-blosc2": 4, "gpmf-parser": 6, "libbpf": 3, "md4c": 2}
        for spec in all_targets():
            assert len(spec.bugs) == expected.get(spec.name, 0)
        total = sum(len(spec.bugs) for spec in all_targets())
        assert total == 15  # the paper's fifteen 0-days

    def test_bug_ids_unique(self):
        ids = [b.bug_id for spec in all_targets() for b in spec.bugs]
        assert len(ids) == len(set(ids))

    def test_get_target_unknown(self):
        with pytest.raises(KeyError):
            get_target("nginx")


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
class TestBuilds:
    def test_baseline_build_verifies(self, name):
        module = get_target(name).build_baseline()
        verify_module(module)
        assert module.has_function("main")

    def test_closurex_build_verifies(self, name):
        module = get_target(name).build_closurex()
        verify_module(module)
        assert module.has_function(TARGET_MAIN)
        assert not module.has_function("main")
        assert module.globals_in_section(CLOSURE_GLOBAL_SECTION)

    def test_persistent_build(self, name):
        module = get_target(name).build_persistent()
        assert module.has_function(TARGET_MAIN)
        # exit must NOT be hooked in the naive persistent build
        assert not module.has_function("closurex_exit_hook") or all(
            inst.callee.name != "closurex_exit_hook"
            for func in module.defined_functions()
            for inst in func.instructions()
            if hasattr(inst, "callee")
        )

    def test_static_edges_positive(self, name):
        assert cfg.edge_count(get_target(name).build_baseline()) > 20


def _digest(module) -> str:
    return hashlib.sha256(print_module(module).encode()).hexdigest()


#: sha256 of ``print_module`` for each target's baseline, ClosureX,
#: naive persistent and analysis-guided builds, then the analysis
#: report's elided passes and whether its modified-globals set is
#: trusted.  A change that moves a build on purpose updates its pin.
BUILD_PINS = {
    "bsdtar": (
        "1ecf5b66afe91d88cd3f07e5439acb47ee09edaf0e058259614d1f8c65b87561",
        "a05b81872458db924dea5fe7ec9a4a0c1d82f3794da346dab2fc241ce5d30727",
        "6396becf66aea63f51042eaf6f680a7566eeb1ec344b8bc9a0ebf0d9188c0fa3",
        "a05b81872458db924dea5fe7ec9a4a0c1d82f3794da346dab2fc241ce5d30727",
        set(), True,
    ),
    "c-blosc2": (
        "d9a46b64d62c37e40b508a05de9b92426bd28bf551919ead832b2d3924e80c7e",
        "f3ab32dab7e202c9655250b846e9a5203f63a5586e5bb7be7a730a1cd0aecd49",
        "454c15b95208a32fccc38f812e1302b37572722f63db08949d85f1f693d02ee9",
        "f3ab32dab7e202c9655250b846e9a5203f63a5586e5bb7be7a730a1cd0aecd49",
        set(), True,
    ),
    "freetype": (
        "d88a56c8e35562b31beded2c84817815199d8e393d6129adb23fa1d9ffeb9644",
        "48c8536183e8969421b5a128d7d985d531a8785647c70f132f7900f50085b0e1",
        "c1f57a01a37449a3130b31b9acecd8c6239f16fe80958ae839b4119e2d007505",
        "48c8536183e8969421b5a128d7d985d531a8785647c70f132f7900f50085b0e1",
        set(), True,
    ),
    "giftext": (
        "6b099187e783b7c70a85e3e3cbc6a8867b8b06edc496774678f38bc3533613f9",
        "4f428021aeb16c8d701a16690a2c5932b4b95e9107831be3700dc4a571ca3604",
        "0d465079cba295ba8528b6c183654c0cf63aaba21822f9b1b2ec194caf282f42",
        "4f428021aeb16c8d701a16690a2c5932b4b95e9107831be3700dc4a571ca3604",
        set(), True,
    ),
    "gpmf-parser": (
        "ab47ad023a8ee91e23dea6a9f460370f2d16b623c341a3ef37fd38dd1dc6c496",
        "480427ed35cfc7ec419e4236c42508e7d26afb24d51234bef19be59db66ec5cf",
        "737af2be3a8055bb48fb741053607c81bca54ab8b17ffd41ce410cd9cbd95984",
        "480427ed35cfc7ec419e4236c42508e7d26afb24d51234bef19be59db66ec5cf",
        set(), True,
    ),
    "libbpf": (
        "48a2b308e9faa96acad16e00155fdc58c374359cff5711eacbaabf56dcf1ecfd",
        "91d54efdfd728d23e3bc4300db0f6ab7813f11c469204cf578fb17da7e21082e",
        "6b877b7d1003c85dc83558d9c17cec77ea2f880652c8cde3b1a4a3f261906905",
        "91d54efdfd728d23e3bc4300db0f6ab7813f11c469204cf578fb17da7e21082e",
        set(), False,
    ),
    "libdwarf": (
        "a2a47a0130edf76c12cb5583a0dc557df8c25065c7f862e57b4e8061f2acc01c",
        "4fc3012ca518dfce4926b13d12b3543979052b06e3dea0e93908855f32693e76",
        "26faff5f7dc253754b610e2f4eae90cd44f018f672b46c652be696b381930482",
        "4fc3012ca518dfce4926b13d12b3543979052b06e3dea0e93908855f32693e76",
        set(), True,
    ),
    "libpcap": (
        "d1b440e4a4bde92163e5d4777dfdc17caf76925001ee03988d4fcf472c8aa05c",
        "c349f9eac029ac4e41563483c6c31d0b9eea85c5e6d10d23ab7a94e8447cf119",
        "a1a5fcc91b7849516803cf787258968aaab507fa69491fe7a4ca98c21a5d443e",
        "c349f9eac029ac4e41563483c6c31d0b9eea85c5e6d10d23ab7a94e8447cf119",
        set(), True,
    ),
    "md4c": (
        "03b83d472fe741a3504e898b7576505c6338cc5215f67a0749ef81030439fbaf",
        "ec417bc333018a96a8f381d0ed868364563c680d6df3cf78f70a82ca87596d3f",
        "17f5743bb026fc8bbd288e363195a0a7c3ffe6b3556b9441a0f3af5d42471730",
        "6474286e3a82ff5e9591bbeaaaeaf0eaf20842ec94659e64594d5038b9f7525d",
        {"HeapPass"}, True,
    ),
    "zlib": (
        "f8e73c5797e08db2b15f7ebff833a9525423c90d0805c3a5683b8a7cf7bac8fc",
        "842d3607e8fa802683a8dfbc6ae29e655aea6c1fd98e053da15d1bb7716c12c7",
        "c867fbbfca705e6376c4be7e39eca2af1f3ca080d634983b21e45ab067600212",
        "842d3607e8fa802683a8dfbc6ae29e655aea6c1fd98e053da15d1bb7716c12c7",
        set(), True,
    ),
}
#: ``print_module`` sha256 of md4c's ClosureX build run through the
#: optimizer, the one build a benchmark workload optimizes.
MD4C_OPTIMIZED_PIN = (
    "a88fbc3c1acc58c6247033e9ca4f9c2cc06c67837a06453aca7cf4bd0a25b3df"
)


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
class TestBuildPins:
    """Every build of every target, byte for byte."""

    def test_baseline(self, name):
        module = get_target(name).build_baseline()
        assert _digest(module) == BUILD_PINS[name][0]

    def test_closurex(self, name):
        module = get_target(name).build_closurex()
        assert _digest(module) == BUILD_PINS[name][1]

    def test_persistent(self, name):
        module = get_target(name).build_persistent()
        assert _digest(module) == BUILD_PINS[name][2]

    def test_analyzed(self, name):
        module, report = get_target(name).build_analyzed()
        assert (_digest(module), report.skip_passes(),
                report.trusted_globals) == BUILD_PINS[name][3:]


def test_md4c_optimized_build_pinned():
    module = get_target("md4c").build_closurex(optimize=True)
    assert _digest(module) == MD4C_OPTIMIZED_PIN


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
class TestSeeds:
    def test_has_multiple_seeds(self, name):
        assert len(get_target(name).seeds) >= 3

    def test_seeds_run_clean(self, name):
        """Seeds must parse successfully — no crash, no early exit — or
        coverage-guided fuzzing never gets past the format gates."""
        spec = get_target(name)
        for i, seed in enumerate(spec.seeds):
            result = run_fresh(spec, seed)
            assert result.status in (IterationStatus.OK, IterationStatus.EXIT), (
                f"{name} seed {i}: {result.status} {result.trap}"
            )
            assert not result.is_crash, f"{name} seed {i} crashed: {result.trap}"

    def test_seed_execution_cost_in_band(self, name):
        """Per-exec cost must stay in the regime the Table 5 cost model
        was calibrated for (it drives the speedup band)."""
        spec = get_target(name)
        for seed in spec.seeds:
            result = run_fresh(spec, seed)
            assert 100 <= result.instructions <= 25_000

    def test_garbage_input_does_not_crash(self, name):
        """Unstructured garbage should be rejected, not crash: the
        planted bugs must require format-aware mutation."""
        spec = get_target(name)
        for junk in (b"", b"\x00" * 40, b"garbage!" * 10, b"\xff" * 64):
            result = run_fresh(spec, junk)
            assert not result.is_crash, f"{name} crashed on junk: {result.trap}"
