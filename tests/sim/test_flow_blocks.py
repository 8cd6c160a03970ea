"""The flow engine's block-counted candidate column against ``np.flatnonzero``.

A move draws ranks among its candidates and maps them to domains through
per-block counts (:class:`repro.sim.flows._BlockColumn`); the oracle is
the sorted candidate list itself, ``np.flatnonzero(mask)[ranks]``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.flows import BLOCK, _BlockColumn


def block_mask(draw_blocks, length):
    """A mask of ``length`` built block by block from (kind, density) pairs."""
    rng = np.random.default_rng(len(draw_blocks) * 7919 + length)
    parts = []
    for kind, density in draw_blocks:
        if kind == "empty":
            parts.append(np.zeros(BLOCK, dtype=bool))
        elif kind == "full":
            parts.append(np.ones(BLOCK, dtype=bool))
        else:
            parts.append(rng.random(BLOCK) < density)
    mask = np.concatenate(parts or [np.zeros(0, dtype=bool)])
    return mask[:length]


MASKS = st.lists(
    st.tuples(st.sampled_from(["empty", "full", "random"]), st.floats(0.0, 1.0)),
    min_size=1,
    max_size=6,
).flatmap(
    lambda blocks: st.tuples(
        st.just(blocks), st.integers((len(blocks) - 1) * BLOCK, len(blocks) * BLOCK)
    )
)


def edge_ranks(mask):
    """Every rank at a block edge: the first and last candidate of each block."""
    counts = [int(mask[start:start + BLOCK].sum()) for start in range(0, len(mask), BLOCK)]
    ends = np.cumsum(counts)
    return sorted({int(rank) for end, count in zip(ends, counts) if count
                   for rank in (end - count, end - 1)})


class TestPositions:
    @settings(max_examples=200, deadline=None)
    @given(masks=MASKS, seed=st.integers(0, 2**32 - 1), take=st.integers(0, 60))
    def test_ranks_map_to_flatnonzero(self, masks, seed, take):
        mask = block_mask(*masks)
        column = _BlockColumn(mask)
        reference = np.flatnonzero(mask)
        assert column.total == len(reference)
        rng = np.random.default_rng(seed)
        ranks = rng.choice(len(reference), size=min(take, len(reference)), replace=False)
        assert column.positions(ranks).tolist() == reference[ranks].tolist()
        edges = np.asarray(edge_ranks(mask), dtype=np.int64)
        assert column.positions(edges).tolist() == reference[edges].tolist()
        # Pick order is kept: reversed ranks give reversed positions.
        assert column.positions(edges[::-1]).tolist() == reference[edges[::-1]].tolist()

    def test_zero_candidates(self):
        for length in (0, 5, BLOCK, 3 * BLOCK + 17):
            column = _BlockColumn(np.zeros(length, dtype=bool))
            assert column.total == 0
            assert column.positions(np.zeros(0, dtype=np.int64)).tolist() == []

    def test_every_rank_of_a_ragged_mask(self):
        rng = np.random.default_rng(3)
        mask = rng.random(5 * BLOCK + 333) < 0.3
        mask[BLOCK:2 * BLOCK] = False  # an empty block between full ones
        mask[2 * BLOCK:3 * BLOCK] = True
        column = _BlockColumn(mask)
        ranks = np.arange(column.total)
        assert (column.positions(ranks) == np.flatnonzero(mask)).all()
        assert (column.positions(ranks[::-1]) == np.flatnonzero(mask)[::-1]).all()


class TestAssign:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rounds=st.integers(1, 8))
    def test_counts_follow_assignments(self, seed, rounds):
        rng = np.random.default_rng(seed)
        length = int(rng.integers(1, 4 * BLOCK))
        mask = rng.random(length) < rng.random()
        column = _BlockColumn(mask)
        for _ in range(rounds):
            indices = rng.choice(length, size=int(rng.integers(0, min(length, 300) + 1)),
                                 replace=False)
            if rng.random() < 0.5:
                values = rng.random(len(indices)) < 0.5
            else:
                values = bool(rng.random() < 0.5)
            mask[indices] = values
            column.assign(indices, values)
            padded = np.zeros(len(column.column), dtype=bool)
            padded[:length] = mask
            assert (column.column == padded).all()
            assert column.counts.tolist() == [
                int(padded[start:start + BLOCK].sum())
                for start in range(0, len(padded), BLOCK)
            ]
            ranks = np.arange(column.total)
            assert (column.positions(ranks) == np.flatnonzero(mask)).all()


@pytest.mark.parametrize("length", [1, BLOCK - 1, BLOCK, BLOCK + 1])
def test_padding_stays_unset(length):
    column = _BlockColumn(np.ones(length, dtype=bool))
    assert len(column.column) % BLOCK == 0
    assert column.total == length
    assert column.positions(np.asarray([length - 1])).tolist() == [length - 1]
