"""Write-ahead frame journal (JSONL).

Between checkpoints the runtime logs every event *before* applying it:
one canonical-JSON line per event carrying the event index ``i``, its
sim-clock time ``t``, heap kind ``k``, insertion sequence ``seq``, and a
CRC32 of the record.  Because the event loop is deterministic, the
journal does not need to store effects — replaying from the last
checkpoint regenerates them — but it pins the exact event stream the
crashed process committed to, so restore can cross-check each replayed
event and fail loudly on any divergence instead of silently forking
history.

Every line is ``{"crc":<crc32>,<fields>}``: the seal is the CRC32 of
the line's own bytes after the ``crc`` field (with the opening brace),
which is the canonical JSON of the record without its seal.  Readers
check the stored bytes directly, so a line verifies only in its
canonical spelling.

Crash tolerance at read time is asymmetric by design: a torn *final*
line is exactly what a kill mid-append produces, so it is discarded; a
damaged *interior* line cannot happen under append-only writes and
raises :class:`JournalError`.  A writer reopened with ``resume=True``
cuts a torn final line off before its first append, so the next record
never lands on the torn bytes.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

from repro.recover.codec import canonical_json, crc32
from repro.recover.errors import JournalError

#: File name of the journal inside a checkpoint directory.
JOURNAL_NAME = "journal.jsonl"


def encode_event(i: int, t: float, k: int, seq: int) -> str:
    """The sealed line of one event record ``{"i","k","seq","t"}``.

    Byte-identical to ``JournalWriter.append({"i": i, "t": t, "k": k,
    "seq": seq})`` for int ``i``/``k``/``seq`` and a finite or int ``t``:
    the keys are written in sorted order, ints as ``%d`` and floats as
    ``float.__repr__``, which is what ``json`` emits.  NaN/Inf raise the
    same ``ValueError`` as :func:`canonical_json`.
    """
    if isinstance(t, float):
        if not math.isfinite(t):
            canonical_json(t)  # raises json's own out-of-range error
        t_text = float.__repr__(t)
    else:
        t_text = "%d" % t
    body = '"i":%d,"k":%d,"seq":%d,"t":%s}' % (i, k, seq, t_text)
    crc = crc32(("{" + body).encode("utf-8"))
    return '{"crc":%d,%s\n' % (crc, body)


class JournalWriter:
    """Append-only writer; ``resume=True`` continues an existing file."""

    def __init__(self, path: "str | os.PathLike", resume: bool = False):
        self.path = Path(path)
        if resume:
            truncate_torn_tail(self.path)
        self._handle = open(
            self.path, "a" if resume else "w", encoding="utf-8"
        )

    def append_event(self, i: int, t: float, k: int, seq: int) -> None:
        """Log one event record (the fixed-shape fast path of
        :meth:`append`, see :func:`encode_event`)."""
        self._handle.write(encode_event(i, t, k, seq))

    def append(self, record: dict) -> None:
        """Log one JSON-safe record, sealed with its own CRC32.

        The seal is spliced into the record's canonical JSON directly
        (``"crc"`` sorts before every other field, so the sealed line is
        still canonical).  The exp and bench ledgers append through
        here; the event loop uses :meth:`append_event`.
        """
        body = canonical_json(record)
        crc = crc32(body.encode("utf-8"))
        if body == "{}":
            line = '{"crc":%d}' % crc
        else:
            line = '{"crc":%d,%s' % (crc, body[1:])
        self._handle.write(line + "\n")

    def sync(self) -> None:
        """Flush to the OS and fsync — the group-commit barrier taken
        before every checkpoint and simulated kill."""
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()


_decode = json.JSONDecoder().decode


def _verify_line(line: bytes, path: Path, lineno: int) -> dict:
    try:
        record = _decode(line.decode("utf-8"))
    except ValueError as err:
        raise JournalError(
            f"journal {path} line {lineno}: unparseable record ({err})"
        ) from err
    if not isinstance(record, dict) or "crc" not in record:
        raise JournalError(f"journal {path} line {lineno}: record has no CRC")
    stored = record.pop("crc")
    # The seal covers the stored bytes after the crc field, reopened
    # with "{" — the record's canonical JSON if the line is canonical.
    seal = b'{"crc":%d' % stored if type(stored) is int else None
    if (
        seal is None
        or not line.startswith(seal)
        or crc32(b"{" + line[len(seal):].removeprefix(b",")) != stored
    ):
        raise JournalError(
            f"journal {path} line {lineno}: CRC mismatch (corrupt record)"
        )
    return record


def truncate_torn_tail(path: "str | os.PathLike") -> None:
    """Make ``path`` end on a complete, verified record before appending.

    :func:`read_journal` drops a torn final line at *read* time, but a
    writer reopened in append mode would write the next record onto it;
    cut that line off instead.  A final line that verifies but lost its
    newline keeps its record (the reader returned it) and gets the
    newline back.
    """
    path = Path(path)
    if not path.exists():
        return
    data = path.read_bytes()
    if not data:
        return
    start = data.rfind(b"\n", 0, len(data) - 1) + 1
    last = data[start:]
    with open(path, "r+b") as handle:
        try:
            _verify_line(last.rstrip(b"\n"), path, 0)
        except JournalError:
            handle.truncate(start)
            return
        if not last.endswith(b"\n"):
            handle.seek(0, os.SEEK_END)
            handle.write(b"\n")


def read_journal(
    path: "str | os.PathLike", after_index: int = 0
) -> list[dict]:
    """Read and verify the journal; return records with ``i > after_index``.

    A torn final line (the signature of a crash mid-append) is dropped;
    any other damage raises :class:`JournalError`.  Record indices must
    be strictly increasing — an out-of-order journal is corrupt.
    """
    path = Path(path)
    if not path.exists():
        return []
    lines = path.read_bytes().splitlines()
    records: list[dict] = []
    last_index = None
    for lineno, line in enumerate(lines, start=1):
        try:
            record = _verify_line(line, path, lineno)
        except JournalError:
            if lineno == len(lines):
                break  # torn tail from the crash — tolerated
            raise
        index = record.get("i")
        if not isinstance(index, int):
            raise JournalError(
                f"journal {path} line {lineno}: missing event index"
            )
        if last_index is not None and index <= last_index:
            raise JournalError(
                f"journal {path} line {lineno}: event index {index} not "
                f"after {last_index}"
            )
        last_index = index
        if index > after_index:
            records.append(record)
    return records
