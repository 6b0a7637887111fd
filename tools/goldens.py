#!/usr/bin/env python3
"""Golden-output gate: re-run the pinned command lines and compare
every full digest with its committed value.

Each entry runs its commands in one fresh scratch directory (so a
``--resume`` finds the checkpoint an earlier command wrote there) and
reads values off the output: the ``digest:`` line of
``python -m repro.fuzzing``, the ``store digest:`` and ``report
digest:`` lines of ``python -m repro.experiments matrix``, the sha256
of the paper tables' stdout, and a checkpoint generation's virtual
instant and exec count.  A value that moved is a campaign that moved:
the gate prints the entry, the value and both digests, and exits 1.

Usage:
    PYTHONPATH=src python tools/goldens.py               # every entry
    PYTHONPATH=src python tools/goldens.py fleet-4 i2s   # just these
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))   # for the checkpoint reader

FUZZ = ["-m", "repro.fuzzing"]
MATRIX = ["-m", "repro.experiments", "matrix"]
TABLES_ENV = {"REPRO_BUDGET_MS": "4", "REPRO_TRIALS": "2",
              "REPRO_TARGETS": "giftext,libbpf,md4c"}


class Scratch:
    """One entry's working directory and command runner."""

    def __init__(self, root: str):
        self.root = root

    def run(self, argv: list[str], env: dict | None = None) -> str:
        """``python *argv*`` here; its stdout (a non-zero exit raises)."""
        environment = dict(os.environ, PYTHONPATH=str(REPO / "src"),
                           **(env or {}))
        done = subprocess.run([sys.executable, *argv], cwd=self.root,
                              env=environment, capture_output=True,
                              text=True, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"python {' '.join(argv)} exited "
                               f"{done.returncode}:\n{done.stderr}")
        return done.stdout

    def checkpoint(self, name: str) -> str:
        """One checkpoint generation's instant and exec count."""
        from repro.fuzzing.checkpoint import load_checkpoint
        state = load_checkpoint(os.path.join(self.root, name))
        return f"clock_ns={state['clock_ns']} execs={state['execs']}"

    def write_json(self, name: str, data: dict) -> str:
        """Write *data* as JSON here; returns the file name."""
        with open(os.path.join(self.root, name), "w",
                  encoding="utf-8") as handle:
            json.dump(data, handle)
        return name


def line_value(output: str, prefix: str) -> str:
    """The rest of the one output line starting with *prefix*."""
    values = [line[len(prefix):].strip() for line in output.splitlines()
              if line.startswith(prefix)]
    if len(values) != 1:
        raise ValueError(f"expected one {prefix!r} line, got {len(values)}")
    return values[0]


def matrix_digests(output: str) -> dict:
    """A matrix run's store and report digests."""
    return {"store": line_value(output, "store digest:"),
            "report": line_value(output, "report digest:")}


def variant_spec(n_workers: int) -> dict:
    """The `default` vs `hot` spec on md4c, one trial per arm."""
    return {
        "name": "variants", "targets": ["md4c"], "mechanisms": ["closurex"],
        "trials": 1, "budget_ns": 4_000_000, "measure_every_ns": 2_000_000,
        "base_seed": 100,
        "variants": {"default": {},
                     "hot": {"havoc_base_energy": 480, "enable_trim": False}},
        "n_workers": n_workers,
    }


def fuzz_checkpoint(scratch: Scratch) -> dict:
    full = scratch.run(FUZZ + ["--target", "md4c", "--seed", "3",
                               "--budget-ms", "20", "--checkpoint", "ck",
                               "--checkpoint-ms", "4"])
    pins = {"ck": scratch.checkpoint("ck"),
            "ck.1": scratch.checkpoint("ck.1")}
    resumed = scratch.run(FUZZ + ["--target", "md4c", "--resume", "ck"])
    return {"digest": line_value(full, "digest:"),
            "resumed digest": line_value(resumed, "digest:"), **pins}


def fleet_4(scratch: Scratch) -> dict:
    return {"digest": line_value(scratch.run(FUZZ + [
        "--target", "md4c", "--workers", "4", "--seed", "7",
        "--budget-ms", "8", "--sync-ms", "2"]), "digest:")}


def resumed_fleet(*args: str):
    """A fleet run of *args* with ``--checkpoint fl``, then
    ``--resume fl``."""
    def entry(scratch: Scratch) -> dict:
        full = scratch.run(FUZZ + [*args, "--checkpoint", "fl"])
        resumed = scratch.run(FUZZ + ["--resume", "fl"])
        return {"digest": line_value(full, "digest:"),
                "resumed digest": line_value(resumed, "digest:")}
    return entry


def i2s(scratch: Scratch) -> dict:
    return {"digest": line_value(scratch.run(FUZZ + [
        "--target", "libpcap", "--i2s", "--budget-ms", "20",
        "--seed", "7"]), "digest:")}


def matrix_demo(scratch: Scratch) -> dict:
    return matrix_digests(scratch.run(
        MATRIX + ["--demo", "--out", "D", "--quiet"]))


def matrix_fleet(scratch: Scratch) -> dict:
    return matrix_digests(scratch.run(MATRIX + [
        "--targets", "md4c,giftext", "--mechanisms", "closurex,forkserver",
        "--trials", "2", "--workers", "2", "--budget-ms", "4",
        "--measure-ms", "1", "--out", "D", "--quiet"]))


def tables(scratch: Scratch) -> dict:
    output = scratch.run(["-m", "repro.experiments", "table5", "table6",
                          "table7", "--out", "D"], env=TABLES_ENV)
    return {"stdout sha256": hashlib.sha256(output.encode()).hexdigest()}


def variants(n_workers: int):
    def entry(scratch: Scratch) -> dict:
        spec = scratch.write_json("spec.json", variant_spec(n_workers))
        return matrix_digests(scratch.run(
            MATRIX + ["--spec", spec, "--out", "D", "--quiet"]))
    return entry


#: name -> (entry, the committed values it must reproduce).
GOLDENS = {
    "fuzz-checkpoint": (fuzz_checkpoint, {
        "digest": "e5964e23b3d44a391327ba712bf90f75"
                  "e8cd4ab4ddd8107858ae1cf94f17f6e7",
        "resumed digest": "e5964e23b3d44a391327ba712bf90f75"
                          "e8cd4ab4ddd8107858ae1cf94f17f6e7",
        "ck": "clock_ns=17555537 execs=615",
        "ck.1": "clock_ns=10138576 execs=340",
    }),
    "fleet-4": (fleet_4, {
        "digest": "ad176f6945a4bc5adce8b608131bbefd"
                  "b91152db73ba80df21fef669e7d0335b",
    }),
    "fleet-checkpoint": (resumed_fleet(
        "--target", "md4c", "--workers", "2", "--seed", "7",
        "--budget-ms", "4", "--sync-ms", "2"), {
        "digest": "05c8188b2eb946a95a45286f65b76ffc"
                  "b6535a052bc4443f733dee5c1436de95",
        "resumed digest": "05c8188b2eb946a95a45286f65b76ffc"
                          "b6535a052bc4443f733dee5c1436de95",
    }),
    "forkserver-fleet": (resumed_fleet(
        "--target", "zlib", "--mechanism", "forkserver", "--workers", "4",
        "--seed", "0", "--budget-ms", "8", "--sync-ms", "2"), {
        "digest": "3a2b83b4e152d5356b9c3a6e0aa040b7"
                  "a929587c4b5198a098d6e6fdd35dcf6b",
        "resumed digest": "3a2b83b4e152d5356b9c3a6e0aa040b7"
                          "a929587c4b5198a098d6e6fdd35dcf6b",
    }),
    "i2s": (i2s, {
        "digest": "eea6ecf48901c54f16c530433cc2296c"
                  "7fb3dc24acb2f2cbc7106bff52f339f2",
    }),
    "matrix-demo": (matrix_demo, {
        "store": "58474e33a9ccdf389142dc63d7da2a27"
                 "5b286bcae7e1d7877c8cb43fc54916aa",
        "report": "31627603b9f0ebe0abd30baceb5d76e7"
                  "c4cd3c24bfd1c5b5f622fc518096ccfb",
    }),
    "matrix-fleet": (matrix_fleet, {
        "store": "f210b0a26ac5f81446acfb44763788a7"
                 "c059ab9d1be096f34a90de9651bb27a8",
        "report": "5e9e1d3c85e3cd35ac07de0012fc51c8"
                  "2f44c1bbb1d8430fb9b7a9ea1f875919",
    }),
    "tables": (tables, {
        "stdout sha256": "d13458788349ac7316357b62dcc90d93"
                         "c0e0e0da6bb1f0d51493e02ad164a68f",
    }),
    "variants-1": (variants(1), {
        "store": "ea7feee20ef2c9fa22d730e7b1c5d735"
                 "a002627c10fa7f91ac38166aa33b92b6",
        "report": "063a568658b99d397466e6997d16da5e"
                  "5b95c0a89acf45246478154da6c74d1a",
    }),
    "variants-2": (variants(2), {
        "store": "3c3d172c1e6117496b1f31d00356e36e"
                 "dbb7a37649eefa8ee9d6dd32628b7f07",
        "report": "c5daebf941eeea765254fb56235d50a5"
                  "f841546ab038583b826efd14dc7f3a18",
    }),
}


def main(argv: list[str]) -> int:
    names = argv or list(GOLDENS)
    unknown = sorted(set(names) - set(GOLDENS))
    if unknown:
        print(f"error: unknown entries {unknown}; choose from "
              f"{', '.join(GOLDENS)}", file=sys.stderr)
        return 2
    failures = 0
    for name in names:
        entry, expected = GOLDENS[name]
        with tempfile.TemporaryDirectory(prefix="goldens-") as root:
            actual = entry(Scratch(root))
        for key, want in expected.items():
            got = actual[key]
            if got == want:
                print(f"ok   {name} {key}: {got}")
            else:
                failures += 1
                print(f"FAIL {name} {key}: got {got}, want {want}")
    print(f"{failures} golden value(s) moved")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
