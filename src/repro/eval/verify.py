"""Design verification and timing measurement for evaluated designs.

Every design point in the study is validated the same way before its
metrics are reported: stream IEEE-1180-style random matrices through the
AXI-Stream top, check bit-exactness against the Chen-Wang golden model,
and measure latency/periodicity from the same run.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..axis.harness import StreamHarness, StreamTiming, always
from ..core.errors import EvaluationError
from ..idct.ieee1180 import Ieee1180Generator
from ..idct.reference import chen_wang_idct
from ..frontends.base import Design
from ..sim import Simulator

__all__ = ["VerifyResult", "verify_design", "random_matrices"]


def random_matrices(count: int, seed: int = 1, low: int = 256, high: int = 255,
                    sign: int = 1):
    """IEEE-1180-style random input matrices.

    ``low``/``high``/``sign`` select one of the standard's input
    conditions (range ``[-L, H]``, optionally negated).
    """
    gen = Ieee1180Generator(seed)
    return [gen.block(low, high, sign) for _ in range(count)]


@dataclass
class VerifyResult:
    """Outcome of one verification run."""

    design: str
    matrices: int
    bit_exact: bool
    timing: StreamTiming
    mismatches: int = 0

    @property
    def latency(self) -> int:
        return self.timing.latency

    @property
    def periodicity(self) -> int:
        return self.timing.periodicity


def verify_design(
    design: Design,
    n_matrices: int = 6,
    seed: int = 1,
    simulator: Simulator | None = None,
    strict: bool = True,
    low: int = 256,
    high: int = 255,
    sign: int = 1,
    matrices=None,
) -> VerifyResult:
    """Run ``design`` on random matrices; check against the golden model.

    Raises :class:`EvaluationError` on a functional mismatch when
    ``strict`` (the default) — a design whose output is wrong must never
    contribute numbers to a reproduction table.  Without a ``simulator``
    it runs on the ``compiled`` engine.  ``low``/``high``/``sign`` pick
    the IEEE 1180 input condition the stimulus is drawn from, or pass
    explicit ``matrices`` (used by the fault-injection campaign's
    directed batteries).
    """
    sim = simulator or Simulator(design.top)
    harness = StreamHarness(sim, design.spec)
    if matrices is None:
        matrices = random_matrices(n_matrices, seed, low, high, sign)
    else:
        n_matrices = len(matrices)
    outputs, timing = harness.run_matrices(matrices, always, always)
    expected = [chen_wang_idct(m) for m in matrices]
    mismatches = sum(1 for got, want in zip(outputs, expected) if got != want)
    result = VerifyResult(
        design=design.name,
        matrices=n_matrices,
        bit_exact=mismatches == 0,
        timing=timing,
        mismatches=mismatches,
    )
    if strict and not result.bit_exact:
        raise EvaluationError(
            f"{design.name}: {mismatches}/{n_matrices} matrices mismatch the "
            f"golden model"
        )
    return result
