"""The bench history ledger: ``BENCH_HISTORY.jsonl``.

One CRC-sealed canonical-JSON line per benchmark run, in the exact
write-ahead journal format of :mod:`repro.recover.journal` (and the
campaign runs ledger): strictly increasing integer ``i``, a torn final
line tolerated and truncated before reopen, interior damage fatal.

Records carry no wall clocks beyond the benchmark's own ``wall_s``
metric (which the direction registry deliberately never gates) and no
host names — the ledger is meant to live *in git*, so each appended line
is a reviewable diff: the performance trajectory of the repository.

Record shape::

    {"i": 3, "bench": "serve_scaling",
     "metrics": {"fleet8_goodput_fps": 467.4, ...},
     "context": {"source": "cli"}}
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.recover.errors import JournalError
from repro.recover.journal import JournalWriter, read_journal

#: File name of the tracked history ledger at the repo root.
BENCH_LEDGER_NAME = "BENCH_HISTORY.jsonl"


class BenchLedgerError(ValueError):
    """A malformed bench history (bad journal or record shape)."""


def read_bench_history(path: "str | os.PathLike") -> list[dict]:
    """All verified history records, in append order.

    A missing file is an empty history; a torn final line is dropped
    (the crash signature); anything else raises.
    """
    try:
        records = read_journal(Path(path))
    except JournalError as err:
        raise BenchLedgerError(str(err)) from err
    for record in records:
        if not isinstance(record.get("bench"), str) or not isinstance(
            record.get("metrics"), dict
        ):
            raise BenchLedgerError(
                f"{path} record i={record.get('i')}: needs string 'bench' "
                "and dict 'metrics'"
            )
    return records


def append_bench_record(
    path: "str | os.PathLike",
    bench: str,
    metrics: dict,
    context: "dict | None" = None,
) -> dict:
    """Append one sealed result record; returns the record written.

    The writer truncates the file past any torn tail first, so
    append-mode reopen stays canonical even after a kill mid-append.
    """
    path = Path(path)
    records = read_bench_history(path)
    record = {
        "i": (records[-1]["i"] + 1) if records else 1,
        "bench": str(bench),
        "metrics": {str(k): v for k, v in metrics.items()},
        "context": dict(context or {}),
    }
    writer = JournalWriter(path, resume=True)
    try:
        writer.append(record)
        writer.sync()
    finally:
        writer.close()
    return record


def latest_per_bench(records: list[dict]) -> "dict[str, list[dict]]":
    """Group history records by bench name, preserving append order."""
    grouped: dict[str, list[dict]] = {}
    for record in records:
        grouped.setdefault(record["bench"], []).append(record)
    return grouped
