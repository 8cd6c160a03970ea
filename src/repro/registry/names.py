"""Synthetic but plausible second-level domain labels.

``.ru`` labels are ASCII syllable compounds; ``.рф`` labels are Cyrillic
syllable compounds, which exercises the IDNA/punycode path everywhere a
name crosses the DNS layer.  Uniqueness is guaranteed by appending a
base-36 counter on collision.

A label costs a handful of small draws, and a numpy call per draw costs
far more than the draw.  :class:`NameFactory` therefore reads its
generator's raw 64-bit words a block at a time and spends them exactly
as numpy's per-call ``integers(0, n)`` and ``random()`` would (see
:class:`WordDraws`), then hands the unread words back, so the labels
and the generator's final state are those of one numpy call per draw.
The population's own draws replay the same way, one word at a time.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

import numpy as np

__all__ = ["NameFactory", "WordDraws"]

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


#: Raw words fetched per ``random_raw`` call by :class:`_WordReader`.
_WORD_BLOCK = 4096
_LOW32 = 0xFFFFFFFF


def _pcg64(rng: np.random.Generator) -> np.random.PCG64:
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.PCG64):
        raise TypeError(
            f"word replay needs a PCG64 generator, got {type(bitgen).__name__}"
        )
    return bitgen


class WordDraws:
    """numpy ``Generator`` draws replayed over raw PCG64 words.

    ``integers(n)`` is ``Generator.integers(0, n)`` for ``0 < n < 2**32``:
    numpy's 32-bit Lemire draw with its rejection loop (no draw for
    ``n == 1``).  Each 32-bit value is the low half of a 64-bit word,
    and the high half is kept for the next 32-bit value, as PCG64
    buffers it in ``has_uint32``/``uinteger``; the kept half survives
    ``random()`` calls, which take whole words as
    ``(word >> 11) * 2**-53``.

    Here each word is one ``random_raw()`` call, read as it is spent,
    so the generator always stands just past the words spent.  numpy's
    own ``exponential`` and ``poisson`` read whole words only and never
    the buffered half, so they may be called on the same generator
    between these draws and see what they would after per-call draws.
    The half is kept here, not written back: the generator's own
    32-bit draws would not see it.  Only PCG64 is accepted, since the
    replay follows its 32-bit buffering; :func:`repro.rng.derive_rng`
    always gives one.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        bitgen = _pcg64(rng)
        state = bitgen.state
        self._half: Optional[int] = state["uinteger"] if state["has_uint32"] else None
        self._next64 = bitgen.random_raw

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
        if n == 1:  # numpy answers a one-value range without a draw
            return 0
        m = self._next32() * n
        if m & _LOW32 < n:
            threshold = (_LOW32 + 1 - n) % n
            while m & _LOW32 < threshold:
                m = self._next32() * n
        return m >> 32

    def random(self) -> float:
        """``Generator.random()``."""
        return (self._next64() >> 11) * 2.0 ** -53


class _WordReader(WordDraws):
    """:class:`WordDraws` over words fetched a block at a time.

    ``random_raw`` moves the generator past words not yet spent;
    :meth:`release` puts it back where per-call draws would have left
    it, the buffered half included.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._bitgen = _pcg64(rng)
        self._start(self._bitgen.state)

    def _start(self, state: dict) -> None:
        self._origin = state
        self._words: List[int] = []
        self._position = 0
        self._fetched = 0
        self._half = state["uinteger"] if state["has_uint32"] else None

    def _next64(self) -> int:
        if self._position == len(self._words):
            self._words = self._bitgen.random_raw(_WORD_BLOCK).tolist()
            self._fetched += _WORD_BLOCK
            self._position = 0
        word = self._words[self._position]
        self._position += 1
        return word

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

    :meth:`labels` draws a whole column in one call; :meth:`next_ascii`
    and :meth:`next_cyrillic` draw one label each, the same way.  Call
    :meth:`release` when done to leave the generator where one numpy
    call per draw would have left it.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._draws = _WordReader(rng)
        self._issued: Set[str] = set()
        self._counter = 0

    def labels(self, cyrillic: Iterable[bool]) -> List[str]:
        """One fresh label per flag: Cyrillic (a U-label) or ASCII.

        Each label is two or three syllables; an ASCII one then gets a
        number below 100 with probability 0.15.  A label already issued
        gets a base-36 counter appended until it is fresh.
        """
        integers = self._draws.integers
        random = self._draws.random
        issued = self._issued
        labels: List[str] = []
        for rf in cyrillic:
            syllables = _CYRILLIC_SYLLABLES if rf else _ASCII_SYLLABLES
            size = len(syllables)
            three = integers(2)
            label = syllables[integers(size)] + syllables[integers(size)]
            if three:
                label += syllables[integers(size)]
            if not rf and random() < 0.15:
                label += str(integers(100))
            candidate = label
            while candidate in issued:
                self._counter += 1
                candidate = f"{label}{_base36(self._counter)}"
            issued.add(candidate)
            labels.append(candidate)
        return labels

    def next_ascii(self) -> str:
        """A fresh ASCII label."""
        return self.labels((False,))[0]

    def next_cyrillic(self) -> str:
        """A fresh Cyrillic (U-label) label."""
        return self.labels((True,))[0]

    def release(self) -> None:
        """Hand the unread words back to the generator."""
        self._draws.release()
