"""Mutation engine: AFL++-style deterministic and havoc stages.

Both execution mechanisms are driven by the *same* mutation machinery
(paper §5.3: "configured to use the same coverage tracing and seed
mutation mechanisms"), so the only experimental variable is process
management.
"""

from __future__ import annotations

import random
from typing import Iterator

INTERESTING_8 = [-128, -1, 0, 1, 16, 32, 64, 100, 127]
INTERESTING_16 = [-32768, -129, 128, 255, 256, 512, 1000, 1024, 4096, 32767]
INTERESTING_32 = [-2147483648, -100663046, -32769, 32768, 65535, 65536,
                  100663045, 2147483647]

ARITH_MAX = 16
HAVOC_STACK_POW = 5           # up to 2**5 stacked havoc tweaks
MAX_INPUT_SIZE = 4096


def draw_below(rng: random.Random):
    """A function ``below(n)`` drawing, for ``n >= 1``, the value
    ``rng.randrange(n)`` would, from the same bits of *rng*'s bound
    ``getrandbits``, as CPython 3.10 to 3.13 draw it: ``k =
    n.bit_length()`` bits, drawn again while the result is ``n`` or
    more.  The stream and *rng*'s state after are those of
    ``randrange``, without its argument checks and its extra call:
    ``randrange(a, b)`` is ``a + below(b - a)`` and ``choice(seq)`` is
    ``seq[below(len(seq))]``."""
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return below


def deterministic_mutations(data: bytes) -> Iterator[bytes]:
    """The deterministic stage: walking bitflips, arithmetic, and
    interesting-value substitutions, exactly once per queue entry."""
    if not data:
        return
    yield from _bitflips(data)
    yield from _byteflips(data)
    yield from _arith8(data)
    yield from _interesting8(data)
    yield from _interesting16(data)


def _bitflips(data: bytes) -> Iterator[bytes]:
    for bit in range(len(data) * 8):
        out = bytearray(data)
        out[bit // 8] ^= 0x80 >> (bit % 8)
        yield bytes(out)


def _byteflips(data: bytes) -> Iterator[bytes]:
    for i in range(len(data)):
        out = bytearray(data)
        out[i] ^= 0xFF
        yield bytes(out)


def _arith8(data: bytes) -> Iterator[bytes]:
    for i in range(len(data)):
        original = data[i]
        for delta in range(1, ARITH_MAX + 1):
            for value in ((original + delta) & 0xFF, (original - delta) & 0xFF):
                if value == original:
                    continue
                out = bytearray(data)
                out[i] = value
                yield bytes(out)


def _interesting8(data: bytes) -> Iterator[bytes]:
    for i in range(len(data)):
        for value in INTERESTING_8:
            byte = value & 0xFF
            if byte == data[i]:
                continue
            out = bytearray(data)
            out[i] = byte
            yield bytes(out)


def _interesting16(data: bytes) -> Iterator[bytes]:
    for i in range(len(data) - 1):
        for value in INTERESTING_16:
            out = bytearray(data)
            out[i:i + 2] = (value & 0xFFFF).to_bytes(2, "little")
            if bytes(out) != data:
                yield bytes(out)


class HavocMutator:
    """Stacked random mutations (AFL's havoc stage) plus splicing.

    When a *dictionary* (an :class:`repro.fuzzing.i2s.AutoDictionary`,
    or any object that is truthy when non-empty and offers
    ``pick(rng)``) is supplied, two extra operators — token overwrite
    and token insert — join the choice space.  They only enter the RNG
    draw once the dictionary holds at least one token, so a campaign
    without I2S (or before the first harvested constant) produces a
    byte-identical mutation stream to a dictionary-less mutator.

    Every draw but ``random()`` goes through :func:`draw_below` over
    *rng*: the same stream ``randrange`` and ``choice`` give.
    """

    def __init__(self, rng: random.Random, max_size: int = MAX_INPUT_SIZE,
                 dictionary=None):
        self.rng = rng
        self.below = draw_below(rng)
        self.max_size = max_size
        self.dictionary = dictionary

    def mutate(self, data: bytes) -> bytes:
        out = bytearray(data if data else b"\x00")
        operations = 1 << (1 + self.below(HAVOC_STACK_POW))
        for _ in range(operations):
            self._apply_one(out)
            if not out:
                out = bytearray(b"\x00")
        return bytes(out[: self.max_size])

    def splice(self, first: bytes, second: bytes) -> bytes:
        """Crossover two inputs at random split points, then havoc."""
        if not first or not second:
            return self.mutate(first or second)
        split_a = self.below(len(first))
        split_b = self.below(len(second))
        return self.mutate(first[:split_a] + second[split_b:])

    # -- individual havoc operations ------------------------------------

    def _apply_one(self, out: bytearray) -> None:
        n_choices = 14 if self.dictionary else 12
        choice = self.below(n_choices)
        if choice == 0:
            self._flip_bit(out)
        elif choice == 1:
            self._random_byte(out)
        elif choice == 2:
            self._arith(out)
        elif choice == 3:
            self._interesting(out)
        elif choice == 4:
            self._delete_block(out)
        elif choice == 5:
            self._clone_block(out)
        elif choice == 6:
            self._overwrite_block(out)
        elif choice == 7:
            self._insert_random(out)
        elif choice == 8:
            self._swap_words(out)
        elif choice == 9:
            self._truncate(out)
        elif choice == 10:
            self._overwrite_word(out)
        elif choice == 11:
            self._random_byte(out)
        elif choice == 12:
            self._dict_overwrite(out)
        else:
            self._dict_insert(out)

    def _flip_bit(self, out: bytearray) -> None:
        if out:
            bit = self.below(len(out) * 8)
            out[bit // 8] ^= 1 << (bit % 8)

    def _random_byte(self, out: bytearray) -> None:
        if out:
            # The value is drawn first, then the index, as Python
            # evaluates an assignment.
            out[self.below(len(out))] = self.below(256)

    def _arith(self, out: bytearray) -> None:
        if out:
            index = self.below(len(out))
            delta = 1 + self.below(ARITH_MAX)
            if self.rng.random() < 0.5:
                delta = -delta
            out[index] = (out[index] + delta) & 0xFF

    def _interesting(self, out: bytearray) -> None:
        if not out:
            return
        below = self.below
        width = (1, 2, 4)[below(3)]
        if len(out) < width:
            width = 1
        index = below(len(out) - width + 1)
        pool = {1: INTERESTING_8, 2: INTERESTING_16, 4: INTERESTING_32}[width]
        value = pool[below(len(pool))] & ((1 << (width * 8)) - 1)
        out[index:index + width] = value.to_bytes(width, "little")

    def _delete_block(self, out: bytearray) -> None:
        if len(out) > 1:
            length = 1 + self.below(max(2, len(out) // 2) - 1)
            start = self.below(len(out) - length + 1)
            del out[start:start + length]

    def _clone_block(self, out: bytearray) -> None:
        if out:
            below = self.below
            length = 1 + below(min(len(out), 32))
            start = below(len(out) - length + 1)
            insert_at = below(len(out) + 1)
            out[insert_at:insert_at] = out[start:start + length]
            del out[self.max_size:]     # clamp, never silently skip

    def _overwrite_block(self, out: bytearray) -> None:
        if len(out) > 1:
            below = self.below
            length = 1 + below(min(len(out), 32))
            src = below(len(out) - length + 1)
            dst = below(len(out) - length + 1)
            out[dst:dst + length] = out[src:src + length]

    def _insert_random(self, out: bytearray) -> None:
        below = self.below
        length = 1 + below(15)
        blob = bytes([below(256) for _ in range(length)])
        insert_at = below(len(out) + 1)
        out[insert_at:insert_at] = blob
        del out[self.max_size:]         # clamp, never silently skip

    def _swap_words(self, out: bytearray) -> None:
        if len(out) >= 4:
            a = self.below(len(out) - 1)
            b = self.below(len(out) - 1)
            out[a:a + 2], out[b:b + 2] = out[b:b + 2], out[a:a + 2]

    def _truncate(self, out: bytearray) -> None:
        if len(out) > 4:
            keep = 2 + self.below(len(out) - 2)
            del out[keep:]

    def _overwrite_word(self, out: bytearray) -> None:
        if len(out) >= 4:
            index = self.below(len(out) - 3)
            value = self.below(1 << 32)
            out[index:index + 4] = value.to_bytes(4, "little")

    def _dict_overwrite(self, out: bytearray) -> None:
        token = self.dictionary.pick(self.rng)
        if token is None or not out:
            return
        pos = self.below(len(out))
        end = min(len(out), pos + len(token))
        out[pos:end] = token[:end - pos]

    def _dict_insert(self, out: bytearray) -> None:
        token = self.dictionary.pick(self.rng)
        if token is None:
            return
        insert_at = self.below(len(out) + 1)
        out[insert_at:insert_at] = token
        del out[self.max_size:]         # clamp, never silently skip
