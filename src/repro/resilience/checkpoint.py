"""JSONL checkpoint store for interruptible, resumable sweeps.

Each completed design measurement (or recorded failure) is appended as one
:mod:`repro.core.jsonl` record and fsynced immediately, so a sweep killed
at any point, mid-append included, loses at most the design in flight.
Resuming replays the stored records instead of re-measuring, which makes
an interrupted-then-resumed ``table2``/``fig1`` run byte-identical to an
uninterrupted one: every number in the rendered output round-trips
exactly through JSON (Python floats serialize via ``repr`` and parse
back to the same bits).

Record schema (one object per line)::

    {"schema": 1, "design": "<name>", "status": "ok"|"failed",
     "measured": {…Measured fields…} | null,
     "error": {type, message, design, phase, context} | null,
     "attempts": N, "degraded": bool}
"""

from __future__ import annotations

import os

from ..core import jsonl
from ..eval.measure import Measured

__all__ = ["SCHEMA_VERSION", "Checkpoint", "make_record"]

SCHEMA_VERSION = 1


def make_record(design: str, *, status: str,
                measured: Measured | None = None, error: dict | None = None,
                attempts: int = 1, degraded: bool = False) -> dict:
    """One result in the record schema above."""
    return {
        "schema": SCHEMA_VERSION,
        "design": design,
        "status": status,
        "measured": None if measured is None else measured.to_dict(),
        "error": error,
        "attempts": attempts,
        "degraded": degraded,
    }


class Checkpoint:
    """Append-only JSONL store of per-design sweep results.

    ``resume=True`` loads any existing intact records before appending;
    ``resume=False`` truncates, starting a fresh sweep.
    """

    def __init__(self, path: str | os.PathLike, resume: bool = False) -> None:
        self.path = os.fspath(path)
        self._records: dict[str, dict] = {}
        if resume and os.path.exists(self.path):
            for record in jsonl.read(self.path):
                if record.get("schema") == SCHEMA_VERSION:
                    self._records[record["design"]] = record
        self._log = jsonl.Appender(self.path, fresh=not resume)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, design: str) -> bool:
        return design in self._records

    def names(self) -> list[str]:
        """Design names with stored records (used to skip resumed work)."""
        return list(self._records)

    def get(self, design: str) -> dict | None:
        return self._records.get(design)

    def record(self, design: str, **fields) -> dict:
        """Append one result (``fields`` as for :func:`make_record`),
        fsynced to disk before returning."""
        entry = make_record(design, **fields)
        self._records[design] = entry
        self._log.append(entry)
        return entry
