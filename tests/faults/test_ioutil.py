"""Atomic writes under injected mid-write faults.

Tier-1 (no worlds, no processes): proves a faulted write — through
:mod:`repro.ioutil` or the streaming shard writer — can never leave a
torn file behind the final name, and that the read-back verify turns
injected byte corruption into a retry.
"""

import os

import pytest

from repro.archive.stream import encode_stream, write_shard_stream
from repro.errors import RecoveryError
from repro.faults import CORRUPT, IO_ERROR, FaultPlan, FaultSpec
from repro.ioutil import atomic_write_bytes, backoff_seconds

from ..archive.test_codec_fuzz import canonical_stream


def no_temp_files(directory):
    return not [name for name in os.listdir(directory) if ".tmp." in name]


class TestAtomicWrite:
    def test_plain_write(self, tmp_path):
        path = tmp_path / "out.bin"
        retries = atomic_write_bytes(str(path), b"payload")
        assert retries == 0
        assert path.read_bytes() == b"payload"
        assert no_temp_files(tmp_path)

    def test_mid_write_fault_retries_then_succeeds(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"previous good version")
        plan = FaultPlan(
            1, {"shard.write": FaultSpec(IO_ERROR, 1.0, match="#0")}
        )
        retries = atomic_write_bytes(
            str(path), b"new version", faults=plan, site="shard.write"
        )
        assert retries == 1
        assert path.read_bytes() == b"new version"
        assert plan.injected("shard.write") == 1
        assert no_temp_files(tmp_path)

    def test_exhausted_retries_keep_previous_version(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"previous good version")
        plan = FaultPlan(1, {"shard.write": FaultSpec(IO_ERROR, 1.0)})
        with pytest.raises(RecoveryError, match="3 attempts"):
            atomic_write_bytes(
                str(path), b"new version", faults=plan, site="shard.write",
                retries=2, backoff=0.0,
            )
        # The final name still holds the old bytes — never a torn file.
        assert path.read_bytes() == b"previous good version"
        assert no_temp_files(tmp_path)

    def test_injected_corruption_caught_by_read_back(self, tmp_path):
        path = tmp_path / "out.bin"
        data = bytes(range(256))
        plan = FaultPlan(
            2, {"shard.write.bytes": FaultSpec(CORRUPT, 1.0, match="#0")}
        )
        retries = atomic_write_bytes(
            str(path), data, faults=plan, site="shard.write"
        )
        assert retries == 1
        assert path.read_bytes() == data  # corrupted attempt never lands
        assert plan.injected("shard.write.bytes") == 1
        assert no_temp_files(tmp_path)


class TestStreamedShardWrite:
    def test_corruption_rolled_once_per_attempt(self, tmp_path):
        path = tmp_path / "2022-03-04.shard"
        plan = FaultPlan(
            2, {"shard.write.bytes": FaultSpec(CORRUPT, 1.0, match="#0")}
        )
        day = canonical_stream()
        write_shard_stream(str(path), day, faults=plan)
        # One roll for attempt 0 (corrupted, caught by the read-back
        # verify), none left over for attempt 1, which lands.
        assert plan.events == [
            ("shard.write.bytes", "2022-03-04.shard#0", CORRUPT)
        ]
        assert plan.injected("shard.write.bytes") == 1
        assert path.read_bytes() == encode_stream(day)[0]
        assert no_temp_files(tmp_path)

    def test_mid_write_fault_retries_then_succeeds(self, tmp_path):
        path = tmp_path / "2022-03-04.shard"
        path.write_bytes(b"previous good version")
        plan = FaultPlan(
            1, {"shard.write": FaultSpec(IO_ERROR, 1.0, match="#0")}
        )
        day = canonical_stream()
        write_shard_stream(str(path), day, faults=plan)
        assert plan.injected("shard.write") == 1
        assert path.read_bytes() == encode_stream(day)[0]
        assert no_temp_files(tmp_path)


class TestBackoff:
    def test_exponential_then_capped(self):
        assert backoff_seconds(0, 0.01) == 0.01
        assert backoff_seconds(1, 0.01) == 0.02
        assert backoff_seconds(10, 0.01) == 0.25
