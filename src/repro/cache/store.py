"""Disk-backed, content-addressed artifact store.

Artifacts live under ``<root>/<phase>/<key[:2]>/<key>.<ext>`` where
``key`` is a :func:`~repro.cache.keys.artifact_key` digest.  Two payload
shapes are supported:

* **JSON** — ``Measured`` results and other plain records;
* **pickle** — elaborated netlists and other rich Python objects.

Writes are atomic (temp file + ``os.replace``), so concurrent workers of
a sharded sweep can populate the same cache directory without locking:
the worst case is two workers computing the same artifact and one
``replace`` winning, which is harmless because entries are content
addressed.

**Integrity:** every artifact is sealed with a SHA-256 checksum footer
(``<body>\\n#repro-sha256:<hexdigest>\\n``) at write time and verified at
read time.  A mismatch, truncation, missing footer, or parse/unpickle
failure never raises into the sweep: the entry is moved to
``<root>/corrupt/`` for post-mortem, the ``corrupt`` (and ``errors``)
stats bump, the guarded ``cache.corrupt`` obs counter records, and the
read falls through to a miss so the value is honestly recomputed.

Every hit/miss/put is tracked twice: in the cache's own ``stats`` dict
(always, for CLI summaries) and in guarded ``repro.obs`` counters
(``cache.hits`` / ``cache.misses`` / ``cache.puts`` / ``cache.corrupt``)
that record only while instrumentation is enabled.  An active
:class:`~repro.chaos.ChaosPolicy` may rot the sealed blob on its way to
disk (bit-rot simulation); verification is downstream of that hook by
design, so injected corruption is always caught on read.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from contextlib import contextmanager

from .. import chaos as chaos_mod
from ..obs import events as obs_events
from ..obs import metrics as obs_metrics

__all__ = ["ArtifactCache", "split_footer", "active", "set_active",
           "activate"]

#: Separates an artifact body from its hex SHA-256 checksum footer.
FOOTER_MARK = b"\n#repro-sha256:"


def _digest(body: bytes) -> bytes:
    return hashlib.sha256(body).hexdigest().encode("ascii")


def seal(body: bytes) -> bytes:
    """Append the checksum footer to an artifact body."""
    return body + FOOTER_MARK + _digest(body) + b"\n"


def split_footer(blob: bytes) -> bytes | None:
    """The verified body of a sealed artifact, or ``None`` if corrupt."""
    body, sep, tail = blob.rpartition(FOOTER_MARK)
    if sep and tail.strip() == _digest(body):
        return body
    return None


class ArtifactCache:
    """One cache directory: get/put JSON and pickle payloads by digest."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.stats = {"hits": 0, "misses": 0, "puts": 0, "errors": 0,
                      "corrupt": 0}
        #: Root-relative paths of every sealed entry this handle wrote,
        #: in write order.  Fabric pull-workers use the tail of this list
        #: as the per-task artifact manifest to upload to the master.
        self.written: list[str] = []

    # -- bookkeeping ---------------------------------------------------
    def _hit(self) -> None:
        self.stats["hits"] += 1
        obs_metrics.inc("cache.hits")

    def _miss(self) -> None:
        self.stats["misses"] += 1
        obs_metrics.inc("cache.misses")

    def _put(self) -> None:
        self.stats["puts"] += 1
        obs_metrics.inc("cache.puts")

    def merge_stats(self, stats: dict) -> None:
        """Fold another cache handle's stats in (e.g. a worker's delta)."""
        for key, value in stats.items():
            self.stats[key] = self.stats.get(key, 0) + value

    def summary(self) -> str | None:
        """One-line ``cache: …`` summary, or ``None`` when untouched."""
        stats = self.stats
        if not any(stats.values()):
            return None
        line = (f"cache: {stats['hits']} hits, {stats['misses']} misses, "
                f"{stats['puts']} puts")
        if stats.get("corrupt"):
            line += f", {stats['corrupt']} corrupt (quarantined)"
        return f"{line} ({self.root})"

    # -- paths ---------------------------------------------------------
    def _path(self, phase: str, key: str, ext: str) -> str:
        return os.path.join(self.root, phase, key[:2], f"{key}.{ext}")

    def _write_atomic(self, path: str, data: bytes) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    # -- integrity -----------------------------------------------------
    def _write_sealed(self, path: str, body: bytes, key: str) -> None:
        blob = seal(body)
        policy = chaos_mod.active()
        if policy is not None:
            blob = policy.corrupt_bytes(f"cache:{key}", blob)
        self._write_atomic(path, blob)
        self.written.append(os.path.relpath(path, self.root))

    def _quarantine(self, path: str) -> None:
        """Move a corrupt entry aside (post-mortem) and count it."""
        self.stats["corrupt"] += 1
        self.stats["errors"] += 1
        obs_metrics.inc("cache.corrupt")
        obs_events.emit("cache.corrupt", path=os.path.basename(path))
        dest_dir = os.path.join(self.root, "corrupt")
        try:
            os.makedirs(dest_dir, exist_ok=True)
            os.replace(path, os.path.join(dest_dir, os.path.basename(path)))
        except OSError:
            # Racing reader already moved it, or the FS is failing: the
            # miss below still recomputes honestly either way.
            pass

    def _read_verified(self, path: str) -> bytes | None:
        """Checksum-verified artifact body; ``None`` after quarantining.

        Raises ``FileNotFoundError``/``OSError`` like ``open`` does —
        callers map those to plain misses.
        """
        with open(path, "rb") as handle:
            blob = handle.read()
        body = split_footer(blob)
        if body is None:
            self._quarantine(path)
        return body

    # -- JSON payloads -------------------------------------------------
    def get_json(self, phase: str, key: str) -> dict | None:
        path = self._path(phase, key, "json")
        try:
            body = self._read_verified(path)
        except FileNotFoundError:
            self._miss()
            return None
        except OSError:
            self.stats["errors"] += 1
            self._miss()
            return None
        if body is None:
            self._miss()
            return None
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            # Checksum matched but the body never was JSON (writer bug,
            # or a foreign file dropped into the tree): same quarantine.
            self._quarantine(path)
            self._miss()
            return None
        self._hit()
        return payload

    def put_json(self, phase: str, key: str, payload: dict) -> None:
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._write_sealed(self._path(phase, key, "json"), data,
                           f"{phase}/{key}.json")
        self._put()

    # -- pickle payloads -----------------------------------------------
    def get_pickle(self, phase: str, key: str):
        path = self._path(phase, key, "pkl")
        try:
            body = self._read_verified(path)
        except FileNotFoundError:
            self._miss()
            return None
        except OSError:
            self.stats["errors"] += 1
            self._miss()
            return None
        if body is None:
            self._miss()
            return None
        try:
            payload = pickle.loads(body)
        except Exception:
            self._quarantine(path)
            self._miss()
            return None
        self._hit()
        return payload

    def put_pickle(self, phase: str, key: str, payload) -> bool:
        """Store a pickled artifact; unpicklable payloads are skipped."""
        try:
            data = pickle.dumps(payload)
        except Exception:
            self.stats["errors"] += 1
            return False
        self._write_sealed(self._path(phase, key, "pkl"), data,
                           f"{phase}/{key}.pkl")
        self._put()
        return True

    # -- raw blobs (fabric artifact wire transport) --------------------
    def blob_path(self, key: str) -> str:
        """Where the raw blob addressed by ``key`` (hex SHA-256) lives."""
        return os.path.join(self.root, "fabric", key[:2], f"{key}.bin")

    def put_blob(self, data: bytes, key: str) -> str:
        """Store a raw blob at its SHA-256 address; reject mismatches.

        The fabric artifact endpoint feeds uploads through here: the
        claimed address must equal the digest of the bytes actually
        received, so a tampered or truncated upload never lands in the
        tree — it is written to ``<root>/corrupt/`` for post-mortem
        (counted like any corrupt entry) and ``ValueError`` is raised.
        """
        actual = hashlib.sha256(data).hexdigest()
        if actual != key:
            quarantine_path = os.path.join(self.root, "corrupt",
                                           f"{key}.bin")
            self._write_atomic(quarantine_path, data)
            self.stats["corrupt"] += 1
            self.stats["errors"] += 1
            obs_metrics.inc("cache.corrupt")
            obs_events.emit("cache.corrupt", path=f"{key}.bin",
                            reason="address mismatch")
            raise ValueError(
                f"blob digest {actual[:12]}… does not match its "
                f"address {key[:12]}…")
        self._write_atomic(self.blob_path(key), data)
        self._put()
        return key

    def get_blob(self, key: str) -> bytes | None:
        """Raw blob by SHA-256 address, re-verified; ``None`` on a miss."""
        path = self.blob_path(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            self._miss()
            return None
        if hashlib.sha256(data).hexdigest() != key:
            self._quarantine(path)
            self._miss()
            return None
        self._hit()
        return data

    def install(self, relpath: str, data: bytes) -> bool:
        """Place uploaded bytes at a root-relative cache path, atomically.

        The fabric master installs worker-produced sealed artifacts into
        its own tree through this, after the blob passed its address
        check.  Paths are sanitized (no absolute paths, no ``..``
        escapes); the normal read-time checksum verification still
        guards the content, so a bogus body is quarantined on first use.
        """
        clean = os.path.normpath(relpath)
        if (os.path.isabs(clean) or clean.startswith("..")
                or clean != relpath.rstrip("/")):
            return False
        self._write_atomic(os.path.join(self.root, clean), data)
        return True


# ----------------------------------------------------------------------
# process-wide active cache (consulted by measure_design)
# ----------------------------------------------------------------------

_ACTIVE: ArtifactCache | None = None


def active() -> ArtifactCache | None:
    """The cache the measurement pipeline should consult, if any."""
    return _ACTIVE


def set_active(cache: ArtifactCache | None) -> ArtifactCache | None:
    """Install ``cache`` process-wide (workers call this at startup)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = cache
    return previous


@contextmanager
def activate(cache: ArtifactCache | None):
    """Scoped :func:`set_active` for sessions and tests."""
    previous = set_active(cache)
    try:
        yield cache
    finally:
        set_active(previous)
