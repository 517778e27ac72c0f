"""Write-ahead journal: CRC-sealed records, torn tails, strict interiors."""

from __future__ import annotations

import json

import pytest

from repro.recover import (
    JOURNAL_NAME,
    JournalError,
    JournalWriter,
    canonical_bytes,
    canonical_json,
    crc32,
    read_journal,
)
from repro.recover.journal import encode_event, truncate_torn_tail


def write_records(path, records):
    writer = JournalWriter(path)
    for record in records:
        writer.append(record)
    writer.close()


RECORDS = [
    {"i": 1, "t": 0.0, "k": 2, "seq": 0},
    {"i": 2, "t": 0.011, "k": 2, "seq": 1},
    {"i": 3, "t": 0.0125, "k": 1, "seq": 2},
]


class TestRoundTrip:
    def test_append_read_roundtrip(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        write_records(path, RECORDS)
        assert read_journal(path) == RECORDS

    def test_after_index_filters(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        write_records(path, RECORDS)
        assert read_journal(path, after_index=2) == RECORDS[2:]

    def test_missing_file_is_empty(self, tmp_path):
        assert read_journal(tmp_path / JOURNAL_NAME) == []

    def test_resume_appends(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        write_records(path, RECORDS[:2])
        writer = JournalWriter(path, resume=True)
        writer.append(RECORDS[2])
        writer.close()
        assert read_journal(path) == RECORDS

    def test_records_are_crc_sealed(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        write_records(path, RECORDS[:1])
        line = json.loads(path.read_text().splitlines()[0])
        stored = line.pop("crc")
        assert stored == crc32(canonical_bytes(line))


class TestCorruption:
    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        write_records(path, RECORDS)
        text = path.read_text()
        # A kill mid-append leaves a half-written last line.
        path.write_text(text[: len(text) - 12])
        assert read_journal(path) == RECORDS[:2]

    def test_interior_corruption_raises(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        write_records(path, RECORDS)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-8]  # damage a non-final line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="line 2"):
            read_journal(path)

    def test_resealed_tamper_with_bad_crc_raises(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        write_records(path, RECORDS)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["t"] = 99.0  # content change without recomputing the CRC
        lines[1] = canonical_json(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="CRC mismatch"):
            read_journal(path)

    def test_non_increasing_indices_raise(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        write_records(path, [RECORDS[0], RECORDS[2], RECORDS[1]])
        with pytest.raises(JournalError, match="not\\s+after"):
            read_journal(path)

    def test_record_without_index_raises(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        writer = JournalWriter(path)
        writer.append({"t": 0.0, "k": 2, "seq": 0})
        writer.append({"i": 1, "t": 0.0, "k": 2, "seq": 0})
        writer.close()
        with pytest.raises(JournalError, match="missing event index"):
            read_journal(path)


class TestEventEncoder:
    """``encode_event`` is the event loop's fast path; the generic
    ``append(record)`` is its oracle, byte for byte."""

    @staticmethod
    def generic_line(tmp_path, record) -> str:
        path = tmp_path / "generic.jsonl"
        writer = JournalWriter(path)
        writer.append(record)
        writer.close()
        return path.read_text()

    @pytest.mark.parametrize("t", [0.0, 1e-7, 0.1 + 0.2, 1e16, 5, 1234.5678, -0.0])
    @pytest.mark.parametrize("k", [-7, -1, 1, 3, 4, 14])
    def test_bytes_equal_the_generic_append(self, tmp_path, t, k):
        for i, seq in ((1, 0), (55_255, 2**40 + 3)):
            expected = self.generic_line(tmp_path, {"i": i, "t": t, "k": k, "seq": seq})
            assert encode_event(i, t, k, seq) == expected

    def test_append_event_writes_the_encoded_line(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        writer = JournalWriter(path)
        for record in RECORDS:
            writer.append_event(record["i"], record["t"], record["k"], record["seq"])
        writer.close()
        assert read_journal(path) == RECORDS

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_time_refused_like_canonical_json(self, t):
        with pytest.raises(ValueError) as generic:
            canonical_json({"i": 1, "t": t, "k": 2, "seq": 0})
        with pytest.raises(ValueError) as fast:
            encode_event(1, t, 2, 0)
        assert str(fast.value) == str(generic.value)


class TestStoredBytesSeal:
    def test_respaced_equal_line_is_refused(self, tmp_path):
        """The seal covers the stored bytes: an equal record re-spaced
        (no longer canonical) fails verification."""
        path = tmp_path / JOURNAL_NAME
        write_records(path, RECORDS)
        lines = path.read_text().splitlines()
        lines[1] = json.dumps(json.loads(lines[1]))  # same record, ", " and ": "
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="line 2: CRC mismatch"):
            read_journal(path)

    def test_reordered_fields_are_refused(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        write_records(path, RECORDS)
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        lines[0] = json.dumps(dict(reversed(record.items())), separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="line 1: CRC mismatch"):
            read_journal(path)

    def test_seal_only_record_verifies(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        writer = JournalWriter(path)
        writer.append({})
        writer.close()
        assert path.read_text() == '{"crc":%d}\n' % crc32(b"{}")
        with pytest.raises(JournalError, match="missing event index"):
            read_journal(path)


class TestResumeRepairsTornTail:
    def test_torn_tail_is_cut_before_the_next_append(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        write_records(path, RECORDS)
        intact = path.read_bytes()
        path.write_bytes(intact[:-7])  # kill mid-append of record 3
        writer = JournalWriter(path, resume=True)
        writer.append(RECORDS[2])
        writer.close()
        assert path.read_bytes() == intact

    def test_verified_line_missing_its_newline_is_kept(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        write_records(path, RECORDS[:2])
        path.write_bytes(path.read_bytes()[:-1])
        assert read_journal(path) == RECORDS[:2]
        writer = JournalWriter(path, resume=True)
        writer.append(RECORDS[2])
        writer.close()
        assert read_journal(path) == RECORDS

    def test_fully_torn_single_line_empties_the_file(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        path.write_bytes(b'{"crc":12,"i":1')
        truncate_torn_tail(path)
        assert path.read_bytes() == b""

    def test_missing_and_empty_files_are_left_alone(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        truncate_torn_tail(path)
        assert not path.exists()
        path.write_bytes(b"")
        truncate_torn_tail(path)
        assert path.read_bytes() == b""
