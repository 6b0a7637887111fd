"""Tests for the fresh-process replay oracle (:mod:`repro.runtime.replay`).

Covers the VM-count invariant every caller's determinism rests on (one
VM per replay plus one per pollution input that kills the process:
each ``VM()`` draws the next boot-sequence value, which freetype's
``time()``-seeded PRNG observes), pollution semantics on a ClosureX
build, the plain file-input path, and that snapshots and edge traces
are captured only on request.
"""

import pytest

from repro.minic import compile_c
from repro.passes import PassManager, baseline_passes, closurex_passes
from repro.runtime.harness import IterationStatus
from repro.runtime.replay import first_divergence, replay
from repro.targets import get_target
from repro.vm.interpreter import VM

#: Counts its executions in a restored global and prints the count, so
#: a replay whose pollution leaked through restoration would print more
#: than 1.  Input ``X`` crashes, killing a persistent process.
SOURCE = r"""
int counter;

int main(int argc, char **argv) {
    char *f = fopen(argv[1], "r");
    if (!f) { exit(1); }
    char buf[8];
    long n = fread(buf, 1, 8, f);
    fclose(f);
    counter++;
    if (n > 0) {
        if (buf[0] == 'X') { int *p = NULL; *p = 1; }
    }
    print_int(counter);
    return (int)n;
}
"""


def _build(passes):
    module = compile_c(SOURCE, "replay")
    PassManager(passes).run(module)
    return module


CASES = {
    "fresh": (closurex_passes, (), 1),
    "polluted": (closurex_passes, (b"one", b"two"), 1),
    "polluted-crash": (closurex_passes, (b"one", b"X", b"two", b"X"), 3),
    "plain": (baseline_passes, (), 1),
}


@pytest.mark.parametrize("case", list(CASES))
def test_builds_one_vm_plus_one_per_killing_input(monkeypatch, case):
    passes, pollution, expected_vms = CASES[case]
    module = _build(passes(11))
    built = []
    original = VM.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(VM, "__init__", counting_init)
    observation = replay(module, b"abc", pollution=pollution)
    assert len(built) == expected_vms
    assert observation.status is IterationStatus.OK
    assert observation.return_code == 3
    assert observation.output == ("1",)


def test_plain_module_rejects_pollution():
    with pytest.raises(ValueError):
        replay(_build(baseline_passes(11)), b"abc", pollution=[b"one"])


@pytest.fixture(scope="module")
def giftext():
    spec = get_target("giftext")
    return spec, spec.build_closurex()


def test_default_pollution_is_empty(giftext):
    spec, module = giftext
    seed = spec.seeds[0]
    assert replay(module, seed).matches(replay(module, seed, pollution=()))


def test_polluted_giftext_replay_matches_fresh(giftext):
    spec, module = giftext
    pollution = [b"GIF89a", b"\x00" * 12, b"junk"] + list(spec.seeds) * 3
    for seed in spec.seeds:
        fresh = replay(module, seed)
        polluted = replay(module, seed, pollution=pollution)
        assert fresh.matches(polluted), fresh.describe_mismatch(polluted)


def test_snapshot_and_trace_only_on_request(giftext):
    spec, module = giftext
    seed = spec.seeds[0]
    plain = replay(module, seed)
    assert plain.snapshot is None
    assert plain.edge_trace == ()
    assert replay(module, seed, snapshot=True).snapshot is not None
    traced = replay(module, seed, trace=True)
    assert traced.snapshot is None
    assert traced.edge_trace
    assert traced.matches(plain)


@pytest.mark.parametrize("expected, observed, index", [
    ((("f", 1), ("f", 2)), (("f", 1), ("f", 2)), None),
    ((("f", 1), ("f", 2)), (("f", 1), ("g", 2)), 1),
    ((("f", 1),), (("f", 1), ("f", 2)), 1),
    ((), (("f", 1),), 0),
])
def test_first_divergence(expected, observed, index):
    assert first_divergence(expected, observed) == index
