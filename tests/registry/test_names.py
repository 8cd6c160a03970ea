"""Tests for repro.registry.names: the label factory."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.registry.names import (
    _ASCII_SYLLABLES,
    _CYRILLIC_SYLLABLES,
    _WORD_BLOCK,
    NameFactory,
    _base36,
    _WordReader,
)
from repro.rng import derive_rng


def factory(seed=1):
    return NameFactory(derive_rng(seed, "test-names"))


class TestUniqueness:
    def test_ascii_unique(self):
        gen = factory()
        labels = [gen.next_ascii() for _ in range(2000)]
        assert len(labels) == len(set(labels))

    def test_cyrillic_unique(self):
        gen = factory()
        labels = [gen.next_cyrillic() for _ in range(500)]
        assert len(labels) == len(set(labels))

    def test_streams_share_dedupe_space(self):
        gen = factory()
        all_labels = [gen.next_ascii() for _ in range(200)] + [
            gen.next_cyrillic() for _ in range(200)
        ]
        assert len(all_labels) == len(set(all_labels))


class TestShape:
    def test_ascii_is_dns_safe(self):
        gen = factory()
        for _ in range(200):
            label = gen.next_ascii()
            assert label
            assert set(label) <= set("abcdefghijklmnopqrstuvwxyz0123456789")

    def test_cyrillic_is_cyrillic(self):
        gen = factory()
        for _ in range(100):
            label = gen.next_cyrillic()
            assert any(ord(ch) > 0x400 for ch in label)

    def test_deterministic(self):
        gen_a, gen_b = factory(9), factory(9)
        a = [gen_a.next_ascii() for _ in range(10)]
        b = [gen_b.next_ascii() for _ in range(10)]
        assert a == b


#: ``integers(0, n)`` bounds the reader must replay; 2**31 + 1 rejects
#: about half its 32-bit draws, so the Lemire retry loop runs.
BOUNDS = [2, 27, 32, 100, 2**31 + 1]


def replay(reader, numpy_rng, ops):
    """Each op drawn from both sides; returns the (reader, numpy) pairs."""
    pairs = []
    for op in ops:
        if op == "random":
            pairs.append((reader.random(), numpy_rng.random()))
        else:
            pairs.append((reader.integers(op), int(numpy_rng.integers(0, op))))
    return pairs


def next_draws(rng):
    """Ten draws that read a buffered 32-bit half first, then whole words."""
    return [
        value
        for _ in range(5)
        for value in (int(rng.integers(0, 1000)), rng.random())
    ]


class TestWordReader:
    """The reader is numpy's per-call ``integers(0, n)`` and ``random()``."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        primed=st.booleans(),
        ops=st.lists(st.sampled_from(["random"] + BOUNDS), max_size=120),
    )
    def test_draws_and_hand_back_match_numpy(self, seed, primed, ops):
        expected = np.random.default_rng(seed)
        rng = np.random.default_rng(seed)
        if primed:  # the reader starts from a buffered high half
            assert rng.integers(0, 27) == expected.integers(0, 27)
        reader = _WordReader(rng)
        for ours, theirs in replay(reader, expected, ops):
            assert ours == theirs
        reader.release()
        assert next_draws(rng) == next_draws(expected)

    def test_draws_cross_word_blocks(self):
        expected = np.random.default_rng(7)
        rng = np.random.default_rng(7)
        reader = _WordReader(rng)
        ops = (["random", 2**31 + 1, 27] * _WORD_BLOCK)[: 3 * _WORD_BLOCK]
        pairs = replay(reader, expected, ops)
        assert [ours for ours, _ in pairs] == [theirs for _, theirs in pairs]
        reader.release()
        # Released twice and reused: still in step with numpy.
        pairs = replay(reader, expected, ["random", 100, 100])
        reader.release()
        assert [ours for ours, _ in pairs] == [theirs for _, theirs in pairs]
        assert next_draws(rng) == next_draws(expected)

    def test_non_pcg64_refused(self):
        with pytest.raises(TypeError):
            _WordReader(np.random.Generator(np.random.MT19937(1)))


class PerCallFactory:
    """The labels with one numpy call per label part: the reader's oracle."""

    def __init__(self, rng):
        self.rng = rng
        self.issued = set()
        self.counter = 0

    def compound(self, syllables):
        count = 2 + int(self.rng.integers(0, 2))
        picks = self.rng.integers(0, len(syllables), size=count)
        return "".join(syllables[int(i)] for i in picks)

    def next_ascii(self):
        label = self.compound(_ASCII_SYLLABLES)
        if self.rng.random() < 0.15:
            label += str(int(self.rng.integers(0, 100)))
        return self.dedupe(label)

    def next_cyrillic(self):
        return self.dedupe(self.compound(_CYRILLIC_SYLLABLES))

    def dedupe(self, label):
        candidate = label
        while candidate in self.issued:
            self.counter += 1
            candidate = f"{label}{_base36(self.counter)}"
        self.issued.add(candidate)
        return candidate


def test_labels_and_final_state_match_per_call_draws():
    rng = derive_rng(3, "test-names")
    expected_rng = derive_rng(3, "test-names")
    ours, theirs = NameFactory(rng), PerCallFactory(expected_rng)
    for position in range(3000):
        if position % 7 == 0:
            assert ours.next_cyrillic() == theirs.next_cyrillic()
        else:
            assert ours.next_ascii() == theirs.next_ascii()
    assert theirs.counter > 0  # the dedupe counter ran
    ours.release()
    assert next_draws(rng) == next_draws(expected_rng)
