"""Exception hierarchy shared by every repro subsystem.

Each layer of the framework raises a subclass of :class:`ReproError` so that
callers can distinguish "the design is malformed" from "the tool mis-behaved"
without string matching.

Every :class:`ReproError` carries structured context — the design name, the
pipeline phase that raised, and free-form key/value details — so the
resilience runner (:mod:`repro.resilience`) can record *where* a sweep lost a
design without parsing messages.  Context is optional: ``raise WidthError("…")``
works exactly as before.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "WidthError",
    "BuildError",
    "ElaborationError",
    "DriverError",
    "CombinationalLoopError",
    "SimulationError",
    "HarnessTimeout",
    "SynthesisError",
    "ProtocolError",
    "FrontendError",
    "HlsError",
    "ScheduleError",
    "EvaluationError",
    "UsageError",
    "BudgetExceeded",
    "SweepInterrupted",
    "SweepPreempted",
    "WorkerCrashError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro framework.

    ``design``/``phase``/``**context`` attach machine-readable provenance
    used by failure records and obs events; the rendered message gains a
    ``[design=…, phase=…]`` suffix only when such context is present.
    """

    def __init__(
        self,
        message: str = "",
        *,
        design: str | None = None,
        phase: str | None = None,
        **context,
    ) -> None:
        self.message = message
        self.design = design
        self.phase = phase
        self.context = context
        tags = []
        if design is not None:
            tags.append(f"design={design}")
        if phase is not None:
            tags.append(f"phase={phase}")
        rendered = f"{message} [{', '.join(tags)}]" if tags else message
        super().__init__(rendered)

    def with_context(self, design: str | None = None,
                     phase: str | None = None) -> "ReproError":
        """Fill in missing provenance in place (never overwrites)."""
        if design is not None and self.design is None:
            self.design = design
        if phase is not None and self.phase is None:
            self.phase = phase
        return self

    def record(self) -> dict:
        """JSON-ready summary used by checkpoints and failure cells."""
        return {
            "type": type(self).__name__,
            "message": self.message,
            "design": self.design,
            "phase": self.phase,
            "context": {k: v for k, v in self.context.items()
                        if isinstance(v, (str, int, float, bool, type(None)))},
        }


class WidthError(ReproError):
    """A bit-width rule was violated (mismatched or non-positive widths)."""


class BuildError(ReproError):
    """A design could not be constructed (frontend or elaboration failure)."""


class ElaborationError(BuildError):
    """The module hierarchy could not be flattened into a legal netlist."""


class DriverError(ElaborationError):
    """A signal is driven zero times or more than once."""


class CombinationalLoopError(ElaborationError):
    """The combinational assignment graph contains a cycle."""


class SimulationError(ReproError):
    """The simulator was used incorrectly (unknown signal, bad poke, ...)."""


class HarnessTimeout(SimulationError):
    """A streamed run did not complete within its cycle timeout.

    Carries the elapsed ``cycles`` and the input/output beat counts at the
    moment the harness gave up, so sweep failure records can say how far a
    hung design got.
    """

    def __init__(self, message: str = "", *, cycles: int = 0,
                 beats_in: int = 0, beats_out: int = 0, **kwargs) -> None:
        super().__init__(message, cycles=cycles, beats_in=beats_in,
                         beats_out=beats_out, **kwargs)
        self.cycles = cycles
        self.beats_in = beats_in
        self.beats_out = beats_out


class SynthesisError(ReproError):
    """The synthesis cost model could not process a netlist."""


class ProtocolError(ReproError):
    """An AXI-Stream protocol rule was violated during simulation."""


class FrontendError(BuildError):
    """A frontend DSL construct was used incorrectly."""


class HlsError(FrontendError):
    """The mini-C HLS compiler rejected the input program or pragmas."""


class ScheduleError(HlsError):
    """No legal schedule exists under the given constraints."""


class EvaluationError(ReproError):
    """The evaluation harness was configured inconsistently."""


class UsageError(EvaluationError):
    """A user-supplied name or parameter was not recognized (CLI exit
    code 2, HTTP 400).

    Lives here (rather than :mod:`repro.api`, which re-exports it) so
    that leaf modules like the engine registry can raise it without
    importing the session facade.
    """


class BudgetExceeded(ReproError):
    """A per-design wall-clock or simulation-cycle budget was exhausted."""


class SweepInterrupted(ReproError):
    """A sweep was deliberately stopped mid-run (checkpoint left on disk)."""


class SweepPreempted(SweepInterrupted):
    """A higher-priority arrival paused this sweep at a cell boundary.

    Raised by the runner's ``preempt`` hook *after* the boundary cell's
    checkpoint record is durable, so re-running the sweep with
    ``resume=True`` replays every committed cell and the resumed run's
    stdout stays byte-identical to an uninterrupted one.  The scheduler
    (``repro.serve.jobs``) catches this to re-queue the job rather than
    fail it.
    """


class WorkerCrashError(ReproError):
    """A sweep worker process died (SIGKILL/segfault) running one task.

    Raised by the supervised parallel executor when a task keeps killing
    its workers (the quarantine record renders as
    ``FAILED(WorkerCrashError)``), or when the crash budget for a whole
    sweep is exhausted.
    """
