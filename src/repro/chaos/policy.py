"""Seeded, deterministic fault injection for the execution stack.

A :class:`ChaosPolicy` decides — purely from ``(seed, domain, key)``
SHA-256 fractions, never from wall clock or RNG state — which worker
processes die, which cache artifacts rot on disk, and which evaluator
calls stall or fail.  Determinism is the point: the same spec replays
the same disaster in every process of a sharded sweep, so the crash-safe
machinery it attacks (worker supervision in :mod:`repro.exec.parallel`,
checksum quarantine in :mod:`repro.cache.store`, the circuit breaker in
:mod:`repro.serve.breaker`) can be tested against the **honest-failure
invariant**: a chaos run either produces output byte-identical to the
clean run or marks explicit ``FAILED(…)`` cells — never silently wrong
numbers.

Hook sites (all behind a single :func:`active` read, so a run without a
policy pays one global-load per site):

* ``exec.worker.run_task``        — :meth:`ChaosPolicy.should_kill`
  SIGKILLs the worker process (``kill`` once per task, ``poison`` on
  every attempt — the latter drives the quarantine path);
* ``cache.store`` writes          — :meth:`ChaosPolicy.corrupt_bytes`
  truncates or bit-flips the sealed artifact blob;
* ``serve.evaluator.evaluate``    — :meth:`ChaosPolicy.evaluator_fault`
  injects latency and/or raises
  :class:`~repro.core.errors.EvaluationError`;
* ``serve.pool.pool_worker_main`` — :meth:`ChaosPolicy.should_kill`
  again, keyed by ``serve:<design>:<engine>:<seq>`` batch task ids:
  ``kill`` SIGKILLs the serving tier's affine evaluator worker on the
  batch's first attempt (the pool retries it once on a fresh worker),
  ``poison`` on both attempts (the request is quarantined → 503).

The policy is plain picklable state: sweep workers get it through their
:class:`~repro.exec.worker.WorkerContext`, and the serve worker pool
through its :class:`~repro.serve.pool.WorkerInit`, so every process
agrees on which tasks are doomed.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager

from ..core.errors import EvaluationError
from ..obs import events as obs_events
from ..obs import metrics as obs_metrics

__all__ = ["ChaosPolicy", "parse_chaos_spec", "active", "set_active",
           "activate"]

#: One part in 16**12 — the resolution of the hash-derived fractions.
_FRACTION_DENOM = float(16 ** 12)


class ChaosPolicy:
    """One seeded fault-injection configuration.

    Parameters
    ----------
    seed:
        Namespaces every hash fraction; two policies with different
        seeds doom different tasks/artifacts.
    kill:
        Probability a sweep task SIGKILLs its worker on the *first*
        attempt only (kill-once: the supervised re-dispatch succeeds).
    poison:
        Probability a sweep task SIGKILLs its worker on *every* attempt
        — such tasks must end up quarantined as ``FAILED(…)`` cells.
    corrupt:
        Probability a written cache artifact is truncated or bit-flipped
        on disk (post-checksum, i.e. genuine bit-rot the read-side
        verification must catch).
    flaky:
        Probability one evaluator invocation raises
        :class:`~repro.core.errors.EvaluationError`.
    latency_s:
        Upper bound of a per-invocation evaluator sleep (scaled by a
        hash fraction; 0 disables).
    kill_targets / poison_targets:
        Substring selectors matched against the ``kind:key:index`` task
        id — targeted (non-probabilistic) dooming for tests; spelled
        ``kill=@substr`` / ``poison=@substr`` in a spec string.
    """

    def __init__(self, seed: int = 0, kill: float = 0.0, poison: float = 0.0,
                 corrupt: float = 0.0, flaky: float = 0.0,
                 latency_s: float = 0.0, kill_targets: tuple = (),
                 poison_targets: tuple = ()) -> None:
        self.seed = int(seed)
        self.kill = float(kill)
        self.poison = float(poison)
        self.corrupt = float(corrupt)
        self.flaky = float(flaky)
        self.latency_s = float(latency_s)
        self.kill_targets = tuple(kill_targets)
        self.poison_targets = tuple(poison_targets)
        # Per-key invocation counters so repeated evaluator calls on one
        # key draw fresh fractions (a flaky<1 endpoint recovers).
        self._calls: dict[str, int] = {}

    # ------------------------------------------------------------------
    def _fraction(self, domain: str, key: str) -> float:
        """Deterministic fraction in [0, 1) from (seed, domain, key)."""
        digest = hashlib.sha256(
            f"{self.seed}|{domain}|{key}".encode("utf-8")).hexdigest()
        return int(digest[:12], 16) / _FRACTION_DENOM

    # ------------------------------------------------------------------
    def should_kill(self, task_id: str, attempt: int) -> bool:
        """Whether the worker running ``task_id`` dies on this attempt."""
        if any(t in task_id for t in self.poison_targets):
            return True
        if self.poison and self._fraction("poison", task_id) < self.poison:
            return True
        if attempt == 0:
            if any(t in task_id for t in self.kill_targets):
                return True
            if self.kill and self._fraction("kill", task_id) < self.kill:
                return True
        return False

    def corrupt_bytes(self, key: str, blob: bytes) -> bytes:
        """Possibly rot ``blob`` (truncate, or flip one bit) for ``key``."""
        if (not blob or not self.corrupt
                or self._fraction("corrupt", key) >= self.corrupt):
            return blob
        obs_metrics.inc("chaos.corruptions")
        obs_events.emit("chaos.inject", fault="corrupt", key=key)
        if self._fraction("corrupt-mode", key) < 0.5:
            cut = 1 + int(self._fraction("corrupt-cut", key) * (len(blob) - 1))
            return blob[:cut]
        pos = int(self._fraction("corrupt-pos", key) * len(blob))
        bit = 1 << int(self._fraction("corrupt-bit", key) * 8)
        return blob[:pos] + bytes([blob[pos] ^ bit]) + blob[pos + 1:]

    def evaluator_fault(self, key: str) -> None:
        """Inject latency and/or an exception into one evaluator call."""
        calls = self._calls.get(key, 0)
        self._calls[key] = calls + 1
        draw = f"{key}|{calls}"
        if self.latency_s:
            time.sleep(self._fraction("latency", draw) * self.latency_s)
        if self.flaky and self._fraction("flaky", draw) < self.flaky:
            obs_metrics.inc("chaos.faults")
            obs_events.emit("chaos.inject", fault="flaky", key=key)
            raise EvaluationError("chaos: injected evaluator fault",
                                  design=key, phase="chaos.evaluator")

    # ------------------------------------------------------------------
    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        for field in ("kill", "poison", "corrupt", "flaky"):
            value = getattr(self, field)
            if value:
                parts.append(f"{field}={value:g}")
        if self.latency_s:
            parts.append(f"latency={self.latency_s:g}")
        for field, targets in (("kill", self.kill_targets),
                               ("poison", self.poison_targets)):
            parts.extend(f"{field}=@{t}" for t in targets)
        return ",".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChaosPolicy({self.describe()})"


_SPEC_KEYS = ("seed", "kill", "poison", "corrupt", "flaky", "latency")


def parse_chaos_spec(spec: str) -> ChaosPolicy:
    """Parse the CLI ``--chaos`` grammar into a :class:`ChaosPolicy`.

    ``SPEC ::= key=value[,key=value...]`` with keys ``seed`` (int),
    ``kill`` / ``poison`` / ``corrupt`` / ``flaky`` (probability in
    [0, 1], or ``@substr`` for ``kill``/``poison`` to doom matching task
    ids deterministically) and ``latency`` (seconds).  Raises
    ``ValueError`` on anything else; the CLI maps that to exit code 2.
    """
    kwargs: dict = {"kill_targets": [], "poison_targets": []}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or key not in _SPEC_KEYS:
            raise ValueError(
                f"bad chaos spec item {part!r} "
                f"(keys: {', '.join(_SPEC_KEYS)})")
        if value.startswith("@"):
            if key not in ("kill", "poison"):
                raise ValueError(f"@target only applies to kill/poison, "
                                 f"not {key!r}")
            kwargs[f"{key}_targets"].append(value[1:])
            continue
        try:
            number = int(value) if key == "seed" else float(value)
        except ValueError:
            raise ValueError(f"bad chaos value {part!r}") from None
        if key == "seed":
            kwargs["seed"] = number
        elif key == "latency":
            kwargs["latency_s"] = number
        else:
            if not 0.0 <= number <= 1.0:
                raise ValueError(f"{key} must be a probability in [0, 1], "
                                 f"got {value}")
            kwargs[key] = number
    kwargs["kill_targets"] = tuple(kwargs["kill_targets"])
    kwargs["poison_targets"] = tuple(kwargs["poison_targets"])
    return ChaosPolicy(**kwargs)


# ----------------------------------------------------------------------
# process-wide active policy (consulted by the exec/cache/serve hooks)
# ----------------------------------------------------------------------

_ACTIVE: ChaosPolicy | None = None


def active() -> ChaosPolicy | None:
    """The chaos policy the hook sites should consult, if any."""
    return _ACTIVE


def set_active(policy: ChaosPolicy | None) -> ChaosPolicy | None:
    """Install ``policy`` process-wide (workers call this at startup)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = policy
    return previous


@contextmanager
def activate(policy: ChaosPolicy | None):
    """Scoped :func:`set_active` for sessions and tests."""
    previous = set_active(policy)
    try:
        yield policy
    finally:
        set_active(previous)
