"""First-class registry of evaluation engines.

Before this module, engine names were loose string literals scattered
across :mod:`repro.sim.simulator` (``"compiled"``/``"interp"``),
:mod:`repro.serve.evaluator` (``"model"``/``"sim"``) and the CLI, each
with its own validation and error type.  The registry is now the one
source of truth for

* which engines exist (:data:`ENGINES`, ordered),
* what each one *is* (:class:`EngineSpec`: summary + capability flags
  ``batchable`` / ``bit_exact_reference`` / ``warm_start``),
* where each one is accepted (``contexts``: ``"sim"`` engines drive a
  :class:`~repro.sim.simulator.Simulator`, ``"serve"`` engines answer
  ``/v1/idct`` batches), and
* how a user-supplied name is validated (:func:`resolve_engine`, with
  difflib near-miss suggestions mirroring
  :func:`repro.api.resolve_design`).

Serialization follows the one-serialization-path rule:
:func:`render_engines_json` is the single JSON rendering used by both
``python -m repro engines --json`` and ``GET /v1/engines``, so the two
surfaces are byte-identical by construction.

Raw engine strings keep working everywhere — they are the *input* to
:func:`resolve_engine` — but call sites should validate through the
registry rather than comparing literals.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import dataclass

from .core.errors import UsageError

__all__ = [
    "EngineSpec",
    "UnknownEngineError",
    "ENGINES",
    "engine_specs",
    "engine_names",
    "resolve_engine",
    "default_engine",
    "engines_payload",
    "render_engines_json",
]


class UnknownEngineError(UsageError, ValueError):
    """No registered engine matches the requested name (CLI exit 2).

    Also subclasses :class:`ValueError` so pre-registry call sites that
    documented ``ValueError`` for a bad engine string (the serve
    evaluator, the worker pool) keep their exception contract.
    """

    def __init__(self, message: str, *, name: str,
                 suggestions: list[str] | None = None) -> None:
        super().__init__(message, phase="api.resolve_engine")
        self.name = name
        self.suggestions = suggestions or []


@dataclass(frozen=True)
class EngineSpec:
    """One registered evaluation engine.

    ``contexts`` lists the surfaces that accept the engine: ``"sim"``
    (``Simulator``/``verify``/``measure``/``fig1``/``table2``) and
    ``"serve"`` (``/v1/idct`` and ``Session.idct``).  Capability flags:

    batchable:
        Evaluates many input blocks per invocation (the micro-batcher
        coalesces same-engine requests into one call).
    bit_exact_reference:
        The semantics oracle other engines are asserted against.
    warm_start:
        Requires a per-design warm-up proof before first use (the serve
        model engine's licensing run).
    """

    name: str
    summary: str
    contexts: tuple[str, ...]
    batchable: bool = False
    bit_exact_reference: bool = False
    warm_start: bool = False
    default_for: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "summary": self.summary,
            "contexts": list(self.contexts),
            "capabilities": {
                "batchable": self.batchable,
                "bit_exact_reference": self.bit_exact_reference,
                "warm_start": self.warm_start,
            },
            "default_for": list(self.default_for),
        }


ENGINES: tuple[EngineSpec, ...] = (
    EngineSpec(
        name="interp",
        summary="reference IR interpreter; the semantics oracle every "
                "other engine is asserted bit-exact against",
        contexts=("sim",),
        bit_exact_reference=True,
    ),
    EngineSpec(
        name="compiled",
        summary="netlist levelized and compiled to straight-line Python; "
                "one input block per settle/tick pass",
        contexts=("sim",),
        default_for=("sim",),
    ),
    EngineSpec(
        name="batch",
        summary="lane-packed compiled netlist (repro.sim.batch); B blocks "
                "per settle/tick pass on bigint SWAR lanes",
        contexts=("sim", "serve"),
        batchable=True,
    ),
    EngineSpec(
        name="model",
        summary="vectorized golden Chen-Wang IDCT model, licensed per "
                "design by a warm-start bit-exactness proof",
        contexts=("serve",),
        batchable=True,
        warm_start=True,
        default_for=("serve",),
    ),
    EngineSpec(
        name="sim",
        summary="cycle-accurate AXI-Stream run of the blocks on the "
                "16-lane packed simulator; the same harness as batch",
        contexts=("serve",),
    ),
)

_BY_NAME = {spec.name: spec for spec in ENGINES}


def engine_specs(context: str | None = None) -> tuple[EngineSpec, ...]:
    """Registered engines, optionally restricted to one context."""
    if context is None:
        return ENGINES
    return tuple(s for s in ENGINES if context in s.contexts)


def engine_names(context: str | None = None) -> tuple[str, ...]:
    """Registered engine names, optionally restricted to one context."""
    return tuple(s.name for s in engine_specs(context))


def default_engine(context: str) -> str:
    """The default engine name for ``context``."""
    for spec in ENGINES:
        if context in spec.default_for:
            return spec.name
    raise ValueError(f"no default engine registered for context {context!r}")


def resolve_engine(name: str, context: str | None = None) -> str:
    """Validate ``name`` against the registry; returns the canonical name.

    Raises :class:`UnknownEngineError` (also a ``ValueError``) with
    near-miss suggestions when no engine matches, or when the engine
    exists but is not available in ``context``.
    """
    spec = _BY_NAME.get(name)
    if spec is not None and (context is None or context in spec.contexts):
        return spec.name
    valid = engine_names(context)
    if spec is not None:
        raise UnknownEngineError(
            f"engine {name!r} is not available here "
            f"(choices: {', '.join(valid)})",
            name=name, suggestions=list(valid))
    close = difflib.get_close_matches(name, engine_names(), n=3, cutoff=0.5)
    hint = f"; did you mean {', '.join(close)}?" if close else ""
    raise UnknownEngineError(
        f"unknown engine {name!r}{hint} (choices: {', '.join(valid)})",
        name=name, suggestions=close)


def engines_payload() -> dict:
    """The canonical engines listing (dict form, registry order)."""
    return {"engines": [spec.to_dict() for spec in ENGINES]}


def render_engines_json() -> str:
    """The one JSON serialization of the registry.

    ``python -m repro engines --json`` and ``GET /v1/engines`` both emit
    exactly this string, keeping the two surfaces byte-identical.
    """
    return json.dumps(engines_payload(), indent=2, sort_keys=True) + "\n"
