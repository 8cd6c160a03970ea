"""The writer's encoded name and apex columns across days.

* **property** — over random sequences of synthetic days (random
  measured subsets, hosting plans that change and return, empty days),
  every chunk a stream encodes through carried columns equals a
  cache-free encode of the same positions; a column fills exactly the
  domains it has never seen (names) or last saw under another plan
  (apex runs); and the names read back from the name column equal the
  stream's ``domains_at``;
* **bounds** — a fill that would not fit the column's dtypes is refused
  and leaves the column as it was;
* **footprint** — after a multi-day build, the reducer's two columns
  hold a few dozen bytes per measured domain, not the ~130 that a dict
  entry, an int key and a ``bytes`` object per entry cost.
"""

import datetime as dt
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.archive import stream as stream_module
from repro.archive.builder import ArchiveBuilder
from repro.archive.codec import write_delta_run, write_string
from repro.archive.stream import DayStream, EncodedColumn
from repro.errors import ArchiveError
from repro.sim import ConflictScenarioConfig

POPULATION = 60
PLANS = 3


def name_of(index: int) -> str:
    # Every tenth name is long enough for a two-byte length prefix.
    return f"{'x' * 130 if index % 10 == 0 else 'd'}{index}.ru"


def apex_of(index: int, plan: int):
    """A run that is a function of ``(index, plan)``, of varying length."""
    return tuple(sorted((index * 7919 + plan * k) % 100_003 for k in range(plan + 1)))


class Recorder:
    """A synthetic day's ``domains_at``/``apexes_at``, noting what they serve."""

    def __init__(self, measured, plans):
        self.measured = measured
        self.plans = plans
        self.named = []
        self.apexed = []

    def domains_at(self, positions):
        indices = [int(self.measured[p]) for p in positions]
        self.named.extend(indices)
        return [name_of(index) for index in indices]

    def apexes_at(self, positions):
        pairs = [(int(self.measured[p]), int(self.plans[p])) for p in positions]
        self.apexed.extend(index for index, _ in pairs)
        return [apex_of(index, plan) for index, plan in pairs]


def day_stream(measured, plans, recorder, names=None, apexes=None):
    return DayStream(
        dt.date(2022, 3, 4), 1720, POPULATION, measured,
        np.zeros(len(measured), dtype=np.int32), plans,
        {0: (("ns1.example.ru",), (1101,))}, None,
        recorder.domains_at, recorder.apexes_at, names, apexes,
    )


def cache_free(values, write) -> bytes:
    buffer = bytearray()
    for value in values:
        write(buffer, value)
    return bytes(buffer)


def chunk_bounds(count, cut):
    return [(lo, min(lo + cut, count)) for lo in range(0, count, cut)]


days = st.lists(
    st.tuples(
        st.sets(st.integers(0, POPULATION - 1), max_size=POPULATION),
        st.lists(st.integers(0, PLANS - 1), min_size=POPULATION, max_size=POPULATION),
    ),
    min_size=1,
    max_size=6,
)


class TestCarriedColumns:
    @settings(max_examples=60, deadline=None)
    @given(days=days, cut=st.integers(1, 25), batch=st.integers(1, 9))
    def test_chunks_fills_and_names(self, days, cut, batch):
        names = EncodedColumn().sized(POPULATION)
        apexes = EncodedColumn(keyed=True).sized(POPULATION)
        seen = set()
        last_plan = {}
        with mock.patch.object(stream_module, "BATCH_DOMAINS", batch):
            for members, day_plans in days:
                measured = np.array(sorted(members), dtype=np.int64)
                plans = np.array([day_plans[i] for i in measured], dtype=np.int32)
                recorder = Recorder(measured, plans)
                stream = day_stream(measured, plans, recorder, names, apexes)
                for lo, hi in chunk_bounds(len(measured), cut):
                    assert stream.domains_chunk(lo, hi) == cache_free(
                        map(name_of, measured[lo:hi].tolist()), write_string
                    )
                for lo, hi in chunk_bounds(len(measured), cut):
                    assert stream.apex_chunk(lo, hi) == cache_free(
                        map(apex_of, measured[lo:hi].tolist(), plans[lo:hi].tolist()),
                        write_delta_run,
                    )
                indices = measured.tolist()
                plan_of = dict(zip(indices, plans.tolist()))
                assert recorder.named == [i for i in indices if i not in seen]
                assert recorder.apexed == [
                    i for i in indices if last_plan.get(i) != plan_of[i]
                ]
                seen.update(indices)
                last_plan.update(plan_of)
                assert names.texts(measured) == [name_of(i) for i in indices]

    def test_uncarried_stream_matches_carried(self):
        measured = np.arange(0, POPULATION, 3, dtype=np.int64)
        plans = (measured % PLANS).astype(np.int32)
        carried = day_stream(
            measured, plans, Recorder(measured, plans),
            EncodedColumn().sized(POPULATION),
            EncodedColumn(keyed=True).sized(POPULATION),
        )
        fresh = day_stream(measured, plans, Recorder(measured, plans))
        count = len(measured)
        assert carried.domains_chunk(0, count) == fresh.domains_chunk(0, count)
        assert carried.apex_chunk(0, count) == fresh.apex_chunk(0, count)

    def test_names_missing_read_back_as_none(self):
        names = EncodedColumn().sized(POPULATION)
        assert names.texts([0, 1]) is None


class TestBounds:
    def test_column_serves_one_population(self):
        column = EncodedColumn().sized(POPULATION)
        assert column.sized(POPULATION) is column
        with pytest.raises(ArchiveError):
            column.sized(POPULATION + 1)

    def test_overwide_entry_is_refused_untouched(self):
        column = EncodedColumn().sized(4)
        column.chunk(np.array([0]), None, 0, lambda p: ["ok.ru"], write_string)
        blob = bytes(column.blob)
        with pytest.raises(ArchiveError):
            column.chunk(
                np.array([1, 2]), None, 0,
                lambda p: ["fine.ru", "x" * 40_000], write_string,
            )
        assert bytes(column.blob) == blob
        assert column.size.tolist() == [len(blob), -1, -1, -1]

    def test_overlong_blob_is_refused(self):
        column = EncodedColumn().sized(4)
        with mock.patch.object(stream_module, "_MAX_BLOB", 10):
            column.chunk(np.array([0]), None, 0, lambda p: ["a.ru"], write_string)
            with pytest.raises(ArchiveError):
                column.chunk(
                    np.array([1]), None, 0, lambda p: ["long-name.ru"], write_string
                )
        assert column.size.tolist() == [5, -1, -1, -1]


def column_bytes(column: EncodedColumn) -> int:
    arrays = (column.start, column.size, column.key)
    return sys.getsizeof(column.blob) + sum(a.nbytes for a in arrays if a is not None)


class TestFootprint:
    #: Bytes the two columns may hold per domain they have named.  This
    #: build's columns hold about 53: 16 bytes of per-domain arrays for
    #: each of the ~2.1 population domains per named one, and about 18
    #: bytes of name and apex codec bytes.  Dict entries cost ~130.
    BYTES_PER_DOMAIN = 80

    def test_columns_hold_bytes_not_objects(self, tmp_path):
        config = ConflictScenarioConfig(scale=2500.0, with_pki=False)
        builder = ArchiveBuilder(str(tmp_path / "arch"), config)
        builder.build("2022-03-01", "2022-03-06")
        names, apexes = builder._reducer._names, builder._reducer._apexes
        named = int((names.size >= 0).sum())
        assert named > 1_000
        assert int((apexes.size >= 0).sum()) == named
        per_domain = (column_bytes(names) + column_bytes(apexes)) / named
        assert per_domain < self.BYTES_PER_DOMAIN, per_domain
