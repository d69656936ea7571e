"""Shared frontend plumbing: the Design record and element packing helpers.

A :class:`Design` is what every frontend produces and what the evaluation
harness consumes: a named, AXI-wrapped top module plus the source artifacts
whose lines of code the paper's L metric counts.  A :class:`Recipe` is a
design point before it is built: its final name and config as data, plus
the factory that builds it.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
from dataclasses import dataclass, field
from typing import Callable

from ..axis.spec import KernelSpec
from ..obs import trace as obs_trace
from ..rtl.ir import Expr, Signal, Slice
from ..rtl.module import Module
from ..rtl import ops

__all__ = ["Design", "Recipe", "SourceArtifact", "unpack_elements",
           "pack_elements", "source_of", "traced_build"]


@dataclass(frozen=True)
class SourceArtifact:
    """One piece of counted source: a label and its text."""

    label: str
    text: str
    kind: str = "code"  # "code" | "config" | "pragma"


@dataclass
class Design:
    """An evaluated design point: a wrapped top plus its measured sources."""

    name: str           # e.g. "verilog-initial"
    language: str       # Table I language column
    tool: str           # Table I tool column
    config: str         # "initial" / "opt" / sweep identifier
    top: Module         # AXI-Stream-wrapped top module (or PCIe for MaxJ)
    spec: KernelSpec
    sources: list[SourceArtifact] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def is_optimized(self) -> bool:
        return self.config != "initial"


@dataclass(frozen=True)
class Recipe:
    """A design point as data: what it is called and how to build it.

    ``name`` and ``config`` are exactly the built :class:`Design`'s, so
    everything keyed by them — the artifact cache, the checkpoint, a
    sweep's prefetched results — is reachable without calling ``build``.
    """

    name: str
    tool: str
    config: str
    build: Callable[[], Design]

    def once(self) -> "Recipe":
        """A copy whose ``build`` runs at most once and then returns the
        same design."""
        return dataclasses.replace(self, build=functools.cache(self.build))


def traced_build(frontend: str):
    """Wrap a design factory in a ``frontend.build`` span.

    The produced :class:`Design`'s name/config are attached to the span so
    the profiling report can attribute build time per design point.  While
    tracing is disabled the wrapper costs one flag check.
    """
    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with obs_trace.span("frontend.build", frontend=frontend,
                                factory=fn.__name__) as span:
                result = fn(*args, **kwargs)
                if isinstance(result, Design):
                    span.set(design=result.name, config=result.config)
                return result
        return wrapper
    return decorate


def source_of(obj: Callable | type, label: str, kind: str = "code") -> SourceArtifact:
    """Capture a Python callable's source text as a counted artifact."""
    return SourceArtifact(label=label, text=inspect.getsource(obj), kind=kind)


def unpack_elements(bus: Signal | Expr, count: int, width: int) -> list[Expr]:
    """Split a packed bus into ``count`` element expressions (LSB first)."""
    expr = ops.as_expr(bus)
    return [Slice(expr, (i + 1) * width - 1, i * width) for i in range(count)]


def pack_elements(elements: list[Expr], width: int) -> Expr:
    """Pack element expressions (LSB first) into one bus, resizing each."""
    sized = [ops.resize(e, width, signed=True) for e in elements]
    return ops.cat(*reversed(sized))
