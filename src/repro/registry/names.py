"""Synthetic but plausible second-level domain labels.

``.ru`` labels are ASCII syllable compounds; ``.рф`` labels are Cyrillic
syllable compounds, which exercises the IDNA/punycode path everywhere a
name crosses the DNS layer.  Uniqueness is guaranteed by appending a
base-36 counter on collision.

A label costs a handful of small draws, and a numpy call per draw costs
far more than the draw.  :class:`NameFactory` therefore reads its
generator's raw 64-bit words a block at a time and spends them exactly
as numpy's per-call ``integers(0, n)`` and ``random()`` would (see
:class:`_WordReader`), then hands the unread words back, so the labels
and the generator's final state are those of one numpy call per draw.
"""

from __future__ import annotations

from typing import List, Optional, Set

import numpy as np

__all__ = ["NameFactory"]

_ASCII_SYLLABLES = [
    "al", "an", "ar", "bor", "dom", "el", "en", "er", "gra", "in",
    "ka", "kom", "lan", "lit", "mar", "mir", "neo", "nik", "on", "or",
    "pro", "ros", "ser", "sib", "sky", "sto", "tek", "tor", "ul", "ve",
    "vol", "za",
]
_CYRILLIC_SYLLABLES = [
    "ал", "бор", "век", "гор", "дом", "ель", "жар", "зол", "ино", "кол",
    "лан", "мир", "нов", "окт", "пол", "рус", "сев", "тор", "уль", "флот",
    "хол", "цен", "чер", "шах", "эко", "юни", "яр",
]
_BASE36 = "0123456789abcdefghijklmnopqrstuvwxyz"


def _base36(value: int) -> str:
    if value == 0:
        return "0"
    digits = []
    while value:
        value, rem = divmod(value, 36)
        digits.append(_BASE36[rem])
    return "".join(reversed(digits))


#: Raw words fetched per ``random_raw`` call.
_WORD_BLOCK = 4096
_LOW32 = 0xFFFFFFFF


class _WordReader:
    """numpy ``Generator`` draws replayed over raw PCG64 words.

    ``integers(n)`` is ``Generator.integers(0, n)`` for ``1 < n < 2**32``:
    numpy's 32-bit Lemire draw with its rejection loop.  Each 32-bit
    value is the low half of a 64-bit word, and the high half is kept
    for the next 32-bit value, as PCG64 buffers it in
    ``has_uint32``/``uinteger``; the kept half survives ``random()``
    calls, which take whole words as ``(word >> 11) * 2**-53``.

    Words are fetched a block at a time with ``random_raw``, which moves
    the generator past words not yet spent; :meth:`release` puts it back
    where per-call draws would have left it.  Only PCG64 is accepted,
    since the replay follows its 32-bit buffering; :func:`repro.rng.derive_rng`
    always gives one.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        bitgen = rng.bit_generator
        if not isinstance(bitgen, np.random.PCG64):
            raise TypeError(
                f"word replay needs a PCG64 generator, got {type(bitgen).__name__}"
            )
        self._bitgen = bitgen
        self._start(bitgen.state)

    def _start(self, state: dict) -> None:
        self._origin = state
        self._words: List[int] = []
        self._position = 0
        self._fetched = 0
        self._half: Optional[int] = state["uinteger"] if state["has_uint32"] else None

    def _next64(self) -> int:
        if self._position == len(self._words):
            self._words = self._bitgen.random_raw(_WORD_BLOCK).tolist()
            self._fetched += _WORD_BLOCK
            self._position = 0
        word = self._words[self._position]
        self._position += 1
        return word

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _LOW32

    def integers(self, n: int) -> int:
        """``Generator.integers(0, n)``."""
        m = self._next32() * n
        if m & _LOW32 < n:
            threshold = (_LOW32 + 1 - n) % n
            while m & _LOW32 < threshold:
                m = self._next32() * n
        return m >> 32

    def random(self) -> float:
        """``Generator.random()``."""
        return (self._next64() >> 11) * 2.0 ** -53

    def release(self) -> None:
        """Leave the generator just past the words spent so far."""
        bitgen = self._bitgen
        bitgen.state = self._origin
        bitgen.advance(self._fetched - len(self._words) + self._position)
        state = bitgen.state
        state["has_uint32"] = int(self._half is not None)
        state["uinteger"] = self._half or 0
        bitgen.state = state
        self._start(state)


class NameFactory:
    """Generates unique labels from a numpy RNG.

    Call :meth:`release` when done to leave the generator where one numpy
    call per draw would have left it.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._draws = _WordReader(rng)
        self._issued: Set[str] = set()
        self._counter = 0

    def _compound(self, syllables: List[str]) -> str:
        integers = self._draws.integers
        count = 2 + integers(2)
        size = len(syllables)
        return "".join([syllables[integers(size)] for _ in range(count)])

    def next_ascii(self) -> str:
        """A fresh ASCII label."""
        label = self._compound(_ASCII_SYLLABLES)
        if self._draws.random() < 0.15:
            label += str(self._draws.integers(100))
        return self._dedupe(label)

    def next_cyrillic(self) -> str:
        """A fresh Cyrillic (U-label) label."""
        return self._dedupe(self._compound(_CYRILLIC_SYLLABLES))

    def release(self) -> None:
        """Hand the unread words back to the generator."""
        self._draws.release()

    def _dedupe(self, label: str) -> str:
        candidate = label
        while candidate in self._issued:
            self._counter += 1
            candidate = f"{label}{_base36(self._counter)}"
        self._issued.add(candidate)
        return candidate
