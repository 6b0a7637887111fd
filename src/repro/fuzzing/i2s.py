"""Input-to-state mutation: compare tapping, colorization, replacement.

The cmplog/RedQueen insight is that most "hard" branches in format
parsers compare a value *derived from the input* against a value the
fuzzer could simply write into the input — magic numbers, length
fields, version tags, checksum reconstructions.  Native fuzzers need a
shadow "cmplog" binary to see those operands; here the VM interprets
every ``icmp``/``switch`` itself, so an opt-in :class:`CmpObserver`
records the concrete operand pairs as a side effect of execution
(a tap the interpreter decodes into every ``icmp``/``switch`` of a VM
that has an observer attached, and leaves out of one that has none).

On top of the tap, :class:`I2SStage` runs the classic pipeline once
per queue entry:

1. **probe** — execute the entry with the observer armed, collecting
   ``(site, width, lhs, rhs, predicate)`` tuples;
2. **colorize** — re-randomize don't-care byte ranges while the
   coverage signature stays identical, so operand byte patterns become
   high-entropy and locate *uniquely* in the input;
3. **locate** — search every plausible encoding of each observed
   operand (widths 1/2/4/8, both endiannesses, zero- and sign-extended
   forms) in the original input, confirmed against the colored run;
4. **replace** — patch the located offsets with the *other* compare
   operand (exact, ±1, truncated/extended as the width demands) and
   feed each candidate through the campaign's normal novelty filter.

Observed constants also feed an :class:`AutoDictionary` (joined by
statically mined ``icmp``/``switch``/``memcmp``-family constants, see
:func:`repro.analysis.dictionary.mine_dictionary_tokens`), which the
havoc stage consumes through two dictionary operators in
:mod:`repro.fuzzing.mutators`.

Everything is deterministic for a fixed campaign seed: colorization
randomness comes from a :class:`random.Random` seeded from the
``(campaign seed, entry content hash)`` pair — never from the campaign
RNG, whose draw sequence must stay byte-identical with I2S disabled —
and the whole stage state (per-site pairs, dictionary, stats) survives
RPRCKPT1 checkpoints bit-identically via :meth:`I2SStage.snapshot` /
:meth:`I2SStage.restore`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.fuzzing.mutators import draw_below
from repro.ir.types import IntType
from repro.store.objects import object_digest

#: Hard cap on records collected by one probe execution — keeps a
#: compare-heavy exec (e.g. a long loop over ``icmp``) from ballooning
#: memory or stage time.
MAX_RECORDS_PER_EXEC = 4096
#: Distinct (width, lhs, rhs, predicate) pairs remembered per site.
MAX_PAIRS_PER_SITE = 8
#: Switch cases observed per dispatch (the rest rarely matter).
MAX_SWITCH_CASES = 8

#: Operand widths (bytes) tried when locating a value in the input.
_SEARCH_WIDTHS = (1, 2, 4, 8)

#: Total executions the stage may spend on one queue entry (probe +
#: colorize + replacement candidates).
ENTRY_EXEC_CAP = 128
#: Colorization executions per queue entry.
COLORIZE_BUDGET = 16
#: Offsets tried per (operand encoding) match in the input.
MAX_OFFSETS_PER_PAIR = 4
#: Auto-dictionary capacity and per-token length cap; tokens come from
#: observed compare constants and static IR mining.
DICT_TOKENS = 256
DICT_TOKEN_MAX_LEN = 32
#: Stage self-throttling: after the stage has spent THROTTLE_MIN_EXECS
#: execs, the campaign skips it for entries while its finds per virtual
#: ns fall below THROTTLE_RATIO x the havoc stage's.  Re-evaluated every
#: entry, so a stage that starts paying again un-throttles.
THROTTLE_MIN_EXECS = 256
THROTTLE_RATIO = 0.1


class CmpObserver:
    """Collects compare-operand tuples from the VM dispatch loop.

    The observer is *attached* for the life of the executor (it rides
    into every VM via ``Executor.vm_kwargs()``, surviving respawns)
    but only *records* between :meth:`begin` and :meth:`take` — the
    interpreter checks ``observer.active`` before calling in, so
    ordinary fuzzing executions pay one attribute check per compare
    and zero allocations.
    """

    __slots__ = ("active", "records")

    def __init__(self):
        self.active = False
        self.records: list[tuple] = []

    def begin(self) -> None:
        """Arm the observer for the next execution."""
        self.records = []
        self.active = True

    def take(self) -> list[tuple]:
        """Disarm and return the records collected since :meth:`begin`."""
        self.active = False
        records = self.records
        self.records = []
        return records

    def observe_icmp(self, site, inst, lhs: int, rhs: int) -> None:
        """Record one ``icmp`` evaluation (called by the interpreter)."""
        if len(self.records) >= MAX_RECORDS_PER_EXEC:
            return
        operand_type = inst.lhs.type
        if not isinstance(operand_type, IntType):
            return                      # pointer compares carry no input bytes
        self.records.append((
            (site.function, site.block, inst.name),
            operand_type.bits, lhs, rhs, inst.predicate,
        ))

    def observe_switch(self, site, inst, value: int) -> None:
        """Record a ``switch`` dispatch as one eq-pair per case."""
        if len(self.records) >= MAX_RECORDS_PER_EXEC:
            return
        value_type = inst.value.type
        if not isinstance(value_type, IntType):
            return
        site_key = (site.function, site.block, "switch")
        for case_value, _block in inst.cases[:MAX_SWITCH_CASES]:
            if len(self.records) >= MAX_RECORDS_PER_EXEC:
                return
            self.records.append(
                (site_key, value_type.bits, value, case_value, "eq")
            )


class AutoDictionary:
    """Ordered, deduplicated token list feeding the havoc stage.

    Tokens arrive from two sources — dynamically observed compare
    constants and statically mined IR constants — and are handed to
    :class:`~repro.fuzzing.mutators.HavocMutator` dictionary
    operators.  Insertion order is part of campaign determinism (the
    mutator draws ``tokens[below(len(tokens))]``), so the list only ever
    appends, and :meth:`restore` replaces contents in place (the
    mutator holds a reference to this object).
    """

    def __init__(self):
        self.tokens: list[bytes] = []
        self._seen: set[bytes] = set()

    def add(self, token: bytes) -> bool:
        """Add one token; returns whether it was new and kept."""
        token = bytes(token)
        if not 2 <= len(token) <= DICT_TOKEN_MAX_LEN:
            return False                # 1-byte tokens are plain havoc's job
        if token in self._seen or len(self.tokens) >= DICT_TOKENS:
            return False
        self._seen.add(token)
        self.tokens.append(token)
        return True

    def add_value(self, value: int, bits: int) -> int:
        """Add both-endianness encodings of an observed constant."""
        added = 0
        unsigned = value & ((1 << bits) - 1)
        if unsigned < 0x100:
            return 0                    # single-byte values: not worth a slot
        nbytes = (unsigned.bit_length() + 7) // 8
        for width in (2, 4, 8):
            if width >= nbytes:
                nbytes = width
                break
        for order in ("little", "big"):
            added += self.add(unsigned.to_bytes(nbytes, order))
        return added

    def pick(self, rng: random.Random) -> bytes | None:
        """Deterministically draw one token (None when empty)."""
        if not self.tokens:
            return None
        return self.tokens[draw_below(rng)(len(self.tokens))]

    def restore(self, tokens: list[bytes]) -> None:
        """Replace contents in place (checkpoint resume)."""
        self.tokens[:] = [bytes(t) for t in tokens]
        self._seen = set(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def __bool__(self) -> bool:
        return bool(self.tokens)


@dataclass
class StageStats:
    """Per-mutation-stage efficacy account: execs, finds, virtual ns.

    The campaign scheduler compares stages by *finds per virtual
    nanosecond* — the only currency that matters under a virtual-time
    budget — and throttles the I2S stage when it stops paying relative
    to havoc (see :data:`THROTTLE_RATIO`).
    """

    execs: int = 0
    finds: int = 0
    ns: int = 0

    def find_rate(self) -> float:
        """Finds per virtual nanosecond (0.0 before any time passes)."""
        return self.finds / self.ns if self.ns else 0.0


def operand_encodings(value: int, bits: int) -> list[tuple[int, bool, bytes]]:
    """Every plausible byte encoding of an observed operand.

    Returns ``(nbytes, big_endian, encoded)`` tuples covering widths
    1/2/4/8 in both byte orders, for both the zero-extended and (when
    the value is negative at *bits*) the sign-extended interpretation —
    the input may store a compare operand narrower *or* wider than the
    width the compare itself ran at.
    """
    out: list[tuple[int, bool, bytes]] = []
    seen: set[bytes] = set()
    unsigned = value & ((1 << bits) - 1)
    signed = unsigned - (1 << bits) if unsigned >> (bits - 1) & 1 else unsigned
    for nbytes in _SEARCH_WIDTHS:
        span = 1 << (8 * nbytes)
        fits: list[int] = []
        if unsigned < span:
            fits.append(unsigned)                       # zext form
        if -(span >> 1) <= signed < 0:
            fits.append(signed + span)                  # sext form
        for encodable in fits:
            for big in (False, True):
                encoded = encodable.to_bytes(nbytes, "big" if big else "little")
                if encoded not in seen:
                    seen.add(encoded)
                    out.append((nbytes, big, encoded))
    return out


def replacement_patches(other: int, bits: int, nbytes: int,
                        big: bool) -> list[bytes]:
    """Patch candidates for one located offset: the other compare
    operand and its ±1 neighbours, encoded at the width and byte order
    the operand was located at (truncating when the located slot is
    narrower than the compare — the ``trunc`` variant)."""
    mask = (1 << bits) - 1
    span = 1 << (8 * nbytes)
    order = "big" if big else "little"
    patches = []
    seen = set()
    for variant in (other, (other + 1) & mask, (other - 1) & mask):
        encoded = (variant % span).to_bytes(nbytes, order)
        if encoded not in seen:
            seen.add(encoded)
            patches.append(encoded)
    return patches


def _find_offsets(haystack: bytes, needle: bytes, cap: int) -> list[int]:
    """Up to *cap* match offsets of *needle*, in ascending order."""
    offsets: list[int] = []
    start = 0
    while len(offsets) < cap:
        at = haystack.find(needle, start)
        if at < 0:
            break
        offsets.append(at)
        start = at + 1
    return offsets


class I2SStage:
    """The per-entry input-to-state stage driven by the campaign loop.

    Holds everything the stage accumulates across a campaign — the
    observer, the auto-dictionary, per-site observed pairs — and runs
    the probe → colorize → locate → replace pipeline for one queue
    entry via :meth:`run_entry`.  All randomness is derived from the
    campaign seed and the entry's content hash, never the campaign
    RNG, so enabling I2S does not perturb the havoc stream and a fixed
    seed replays bit-identically.
    """

    def __init__(self, config):
        self.config = config
        self.observer = CmpObserver()
        self.dictionary = AutoDictionary()
        #: site key -> up to MAX_PAIRS_PER_SITE distinct observed
        #: (bits, lhs, rhs, predicate) tuples, in first-seen order.
        self.site_pairs: dict[tuple, list[tuple]] = {}
        self.static_mined = False

    # -- checkpoint round-trip ------------------------------------------

    def snapshot(self) -> dict:
        """Picklable stage state for RPRCKPT1 checkpoints."""
        return {
            "site_pairs": {k: list(v) for k, v in self.site_pairs.items()},
            "dict_tokens": list(self.dictionary.tokens),
            "static_mined": self.static_mined,
        }

    def restore(self, state: dict) -> None:
        """Install checkpointed stage state (resume path)."""
        self.site_pairs = {
            tuple(k): list(v) for k, v in state["site_pairs"].items()
        }
        self.dictionary.restore(state["dict_tokens"])
        self.static_mined = bool(state["static_mined"])

    # -- dictionary sources ---------------------------------------------

    def mine_static(self, module) -> int:
        """Mine dictionary tokens from the target's IR, exactly once."""
        from repro.analysis.dictionary import mine_dictionary_tokens
        added = 0
        for token in mine_dictionary_tokens(module):
            added += self.dictionary.add(token)
        self.static_mined = True
        return added

    def _harvest(self, records: list[tuple]) -> None:
        """Fold one probe's records into site state + dictionary."""
        for site, bits, lhs, rhs, predicate in records:
            pairs = self.site_pairs.setdefault(site, [])
            pair = (bits, lhs, rhs, predicate)
            if pair not in pairs and len(pairs) < MAX_PAIRS_PER_SITE:
                pairs.append(pair)
            self.dictionary.add_value(lhs, bits)
            self.dictionary.add_value(rhs, bits)

    # -- the per-entry pipeline -----------------------------------------

    def run_entry(self, campaign, entry, deadline_ns: int) -> None:
        """Probe, colorize, locate, and replace for one queue entry."""
        budget = ENTRY_EXEC_CAP

        # Probes read compares, not coverage: they go unclassified.
        self.observer.begin()
        campaign._execute(entry.data, signed=False)
        records = self.observer.take()
        budget -= 1
        if not records:
            return
        self._harvest(records)

        colored = entry.data
        colored_records = records
        if entry.data and budget > 1:
            colored, budget = self._colorize(campaign, entry, budget,
                                             deadline_ns)
            if colored != entry.data and budget > 0:
                self.observer.begin()
                campaign._execute(colored, signed=False)
                colored_records = self.observer.take()
                budget -= 1

        self._replace(campaign, entry, records, colored, colored_records,
                      budget, deadline_ns)

    def _colorize(self, campaign, entry, budget: int,
                  deadline_ns: int) -> tuple[bytes, int]:
        """Randomize don't-care bytes while the coverage signature holds.

        Binary-splitting acceptance (the RedQueen algorithm): try to
        re-randomize a whole range; on a signature change, split and
        recurse, leaving single disagreeing bytes uncolored.  The
        result is an input whose behaviour matches the original but
        whose "free" bytes are high-entropy, so operand byte patterns
        locate uniquely.
        """
        rng = random.Random(
            f"i2s-color:{self.config.seed}:{object_digest(entry.data)}"
        )
        below = draw_below(rng)
        colored = bytearray(entry.data)
        target_signature = entry.coverage_signature
        color_budget = min(budget - 1, COLORIZE_BUDGET)
        spans: list[tuple[int, int]] = [(0, len(colored))]
        while spans and color_budget > 0:
            if campaign.clock.now_ns >= deadline_ns:
                break
            start, length = spans.pop()
            if length <= 0:
                continue
            candidate = bytearray(colored)
            for i in range(start, start + length):
                candidate[i] = below(256)
            _, signature = campaign._execute(bytes(candidate))
            color_budget -= 1
            budget -= 1
            if signature == target_signature:
                colored = candidate
            elif length > 1:
                half = length // 2
                spans.append((start + half, length - half))
                spans.append((start, half))
        return bytes(colored), budget

    def _replace(self, campaign, entry, records, colored, colored_records,
                 budget: int, deadline_ns: int) -> None:
        """Substitute the other compare operand at located offsets."""
        data = entry.data
        # Match baseline and colored records positionally per site so a
        # baseline operand can be confirmed against its colored value.
        colored_by_site: dict[tuple, list[tuple]] = {}
        for record in colored_records:
            colored_by_site.setdefault(record[0], []).append(record)
        occurrence: dict[tuple, int] = {}
        tried: set[bytes] = set()

        for site, bits, lhs, rhs, predicate in records:
            index = occurrence.get(site, 0)
            occurrence[site] = index + 1
            twins = colored_by_site.get(site, [])
            twin = twins[index] if index < len(twins) else None
            for operand, other, twin_operand in (
                (lhs, rhs, twin[2] if twin else None),
                (rhs, lhs, twin[3] if twin else None),
            ):
                if operand == other:
                    continue            # guard already satisfied
                for nbytes, big, encoded in operand_encodings(operand, bits):
                    offsets = _find_offsets(data, encoded,
                                            MAX_OFFSETS_PER_PAIR)
                    if twin_operand is not None and twin_operand != operand:
                        # Confirm against the colored run: the same
                        # offset must hold the colored operand's bytes
                        # in the colored input.
                        order = "big" if big else "little"
                        span = 1 << (8 * nbytes)
                        colored_encoded = (
                            (twin_operand & ((1 << bits) - 1)) % span
                        ).to_bytes(nbytes, order)
                        offsets = [
                            at for at in offsets
                            if colored[at:at + nbytes] == colored_encoded
                        ]
                    for at in offsets:
                        for patch in replacement_patches(
                            other, bits, nbytes, big
                        ):
                            if budget <= 0 or (
                                campaign.clock.now_ns >= deadline_ns
                            ):
                                return
                            candidate = (
                                data[:at] + patch + data[at + nbytes:]
                            )
                            if candidate == data or candidate in tried:
                                continue
                            tried.add(candidate)
                            campaign._fuzz_one(candidate, entry)
                            budget -= 1
