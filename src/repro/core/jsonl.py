"""Append-only JSON-lines record log, safe against a torn final record.

The sweep checkpoint, the serve job journal, the ``--events`` sink and
the ``obs tail``/``obs tree`` readers all go through this module.  One
record is ``json.dumps(record, sort_keys=True)`` plus a newline.
:func:`read` skips a terminated line that does not decode to a dict and
drops an unterminated final fragment (a torn append, never
acknowledged), counting each in ``log.torn``; it never modifies the
file.  An :class:`Appender` cuts such a fragment off before its first
append, so a new record never glues onto it.
"""

from __future__ import annotations

import json
import os

__all__ = ["dumps", "read", "write", "Appender"]


def dumps(record: dict) -> str:
    """One record as a log line (newline included)."""
    return json.dumps(record, sort_keys=True) + "\n"


def read(path) -> list[dict]:
    """The intact records of ``path`` in file order (raises ``OSError``
    when the file cannot be read)."""
    with open(path, "rb") as handle:
        *lines, tail = handle.read().split(b"\n")
    records = []
    torn = 1 if tail.strip() else 0
    for line in lines:
        try:
            record = json.loads(line)
        except ValueError:   # UnicodeDecodeError included
            record = None
        if isinstance(record, dict):
            records.append(record)
        elif line.strip():   # blank lines carry nothing to lose
            torn += 1
    if torn:
        # Imported on use: obs.trace, which obs.metrics builds on,
        # exports through this module.
        from ..obs import metrics as obs_metrics

        obs_metrics.inc("log.torn", torn)
    return records


def write(path, records) -> int:
    """Replace ``path`` with ``records``; returns the record count."""
    lines = [dumps(record) for record in records]
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)
    return len(lines)


class Appender:
    """Appends records to one JSONL file, which opening creates.

    ``fresh=True`` empties the file; otherwise a torn final fragment is
    cut off.  With ``fsync`` each :meth:`append` is durable before it
    returns; without, it is only flushed.
    """

    def __init__(self, path, *, fresh: bool = False,
                 fsync: bool = True) -> None:
        self.path = os.fspath(path)
        self.fsync = fsync
        with open(self.path, "a+b") as handle:
            handle.seek(0)
            handle.truncate(0 if fresh else handle.read().rfind(b"\n") + 1)

    def append(self, record: dict) -> None:
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(dumps(record))
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
