"""Content-addressed cache keys.

Every artifact key mixes three ingredients, so a cache entry is valid
exactly as long as all three are unchanged:

* the **code digest** — a SHA-256 over the ``repro`` source tree, so any
  edit to the framework invalidates everything it may have influenced;
* the **design identity** — name and configuration of the design point;
* the **pipeline phase** plus its parameters (a measurement's
  ``n_matrices``), so the same design can hold one artifact per phase.
  The simulator engine is not one: only ``compiled`` measurements are
  stored (:func:`repro.eval.measure.measure_design`).

The code digest walks the package directory once per process and is
memoized; tests point ``root`` at a scratch tree to exercise
invalidation without editing the real sources.
"""

from __future__ import annotations

import hashlib
import os

__all__ = ["code_digest", "artifact_key"]

_DIGEST_MEMO: dict[str, str] = {}


def code_digest(root: str | os.PathLike | None = None) -> str:
    """SHA-256 over all ``.py`` files under ``root`` (default: this package).

    The walk is deterministic (sorted directories and files, relative
    paths mixed into the hash) and memoized per root per process.
    """
    if root is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    root = os.fspath(root)
    memo = _DIGEST_MEMO.get(root)
    if memo is not None:
        return memo
    hasher = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(filenames):
            if not fname.endswith(".py"):
                continue
            path = os.path.join(dirpath, fname)
            hasher.update(os.path.relpath(path, root).encode("utf-8"))
            with open(path, "rb") as handle:
                hasher.update(handle.read())
    digest = hasher.hexdigest()
    _DIGEST_MEMO[root] = digest
    return digest


def artifact_key(
    phase: str,
    design: str,
    config: str,
    root: str | os.PathLike | None = None,
    **params,
) -> str:
    """The content address of one ``(design, phase, code-version)`` artifact."""
    parts = [code_digest(root), phase, design, config]
    parts.extend(f"{key}={params[key]!r}" for key in sorted(params))
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
