"""Hot per-design evaluation state for the service's ``/v1/idct`` path.

A :class:`DesignEvaluator` is built once per design name and then serves
every batch that the :class:`~repro.serve.batcher.MicroBatcher` coalesces
for that design.  Construction is the *warm start*: the design point is
fully measured through :func:`~repro.eval.measure.measure_design` (which
consults the content-addressed artifact cache when one is active, and
builds the design only on a miss), and rejected outright unless it
verified bit-exact against the golden model — a service must never serve
blocks through a design whose hardware output is wrong.

Three evaluation engines (the ``"serve"`` context of the
:mod:`repro.engines` registry) share one results contract (bit-identical
output):

* ``"model"`` (default) — the vectorized :func:`repro.idct.batch.\
batch_chen_wang` twin of the golden model, valid precisely because the
  warm start proved the design bit-exact against it.  One numpy call per
  batch, so throughput grows with batch size.
* ``"sim"`` and ``"batch"`` — the cycle-accurate simulator: the batch's
  blocks are streamed through the design's AXI wrapper on the lanes of
  one lane-packed :class:`~repro.sim.BatchSimulator` (16 lanes), one
  settle/tick pass per cycle for all of them.  Both names run the same
  harness, :meth:`~repro.axis.harness.StreamHarness.run_blocks`, so the
  design is compiled once for the two of them.

Every invocation records ``serve.sim_invocations`` / ``serve.blocks_total``
counters and the ``serve.batch_size`` histogram, which is how both the
coalescing test and the service benchmark argue batching wins from obs
metrics rather than ad-hoc timing.
"""

from __future__ import annotations

from .. import chaos as chaos_mod
from ..core.errors import EvaluationError
from ..engines import engine_names, resolve_engine
from ..idct.constants import INPUT_MAX, INPUT_MIN, SIZE
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace

__all__ = ["DesignEvaluator", "validate_blocks"]

Block = list[list[int]]


def validate_blocks(blocks) -> list[Block]:
    """Check shape (n×8×8) and the 12-bit signed input range.

    Raises ``ValueError`` with a client-presentable message; the server
    maps it to a 400 response.
    """
    if not isinstance(blocks, (list, tuple)) or not blocks:
        raise ValueError("'blocks' must be a non-empty list of 8x8 matrices")
    for b, block in enumerate(blocks):
        if not isinstance(block, (list, tuple)) or len(block) != SIZE:
            raise ValueError(f"blocks[{b}] must have {SIZE} rows")
        for r, row in enumerate(block):
            if not isinstance(row, (list, tuple)) or len(row) != SIZE:
                raise ValueError(f"blocks[{b}][{r}] must have {SIZE} values")
            for value in row:
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ValueError(
                        f"blocks[{b}][{r}] contains a non-integer value")
                if not INPUT_MIN <= value <= INPUT_MAX:
                    raise ValueError(
                        f"blocks[{b}][{r}] value {value} outside "
                        f"[{INPUT_MIN}, {INPUT_MAX}]")
    return [list(map(list, block)) for block in blocks]


class DesignEvaluator:
    """One verified design point, kept hot for batched block evaluation."""

    ENGINES = engine_names("serve")
    #: Simulator lanes behind the ``"sim"`` and ``"batch"`` engines.
    BATCH_LANES = 16

    def __init__(self, name: str, session=None) -> None:
        from ..api import Session, resolve_recipe

        if session is None:
            session = Session()
        # Built at most once, and only if the measurement misses every
        # cache or a sim/batch request needs the netlist and spec.
        self._recipe = resolve_recipe(name).once()
        self.name = self._recipe.name
        # Warm start: a full (cache-aware) measurement doubles as the
        # bit-exactness proof that licenses the vectorized model engine.
        self.measured = session.measure(self._recipe)
        if not self.measured.bit_exact:
            raise EvaluationError(
                f"{self.name} is not bit-exact against the golden model; "
                f"refusing to serve it", design=self.name, phase="serve.warm")
        self._harness = None

    @property
    def design(self):
        """The built design point (built on first use)."""
        return self._recipe.build()

    # ------------------------------------------------------------------
    def _stream_harness(self):
        """The harness behind the ``sim`` and ``batch`` engines, built once."""
        if self._harness is None:
            from ..axis.harness import StreamHarness
            from ..eval.measure import design_netlist
            from ..sim import BatchSimulator

            sim = BatchSimulator(design_netlist(self.design), self.BATCH_LANES)
            self._harness = StreamHarness(sim, self.design.spec)
        return self._harness

    # ------------------------------------------------------------------
    def evaluate(self, blocks: list[Block], engine: str = "model") -> list[Block]:
        """Evaluate one (possibly coalesced) batch of 8×8 blocks.

        Exactly one "simulator invocation" regardless of batch size:
        one vectorized model call, or one streamed simulator run.
        """
        # UnknownEngineError subclasses ValueError, preserving this
        # method's documented exception contract.
        engine = resolve_engine(engine, "serve")
        policy = chaos_mod.active()
        if policy is not None:
            # Chaos drill: injected latency and/or an EvaluationError the
            # server maps to 422 (and counts toward the circuit breaker).
            policy.evaluator_fault(f"{self.name}:{engine}")
        with obs_trace.span("serve.evaluate", design=self.name,
                            engine=engine, blocks=len(blocks)):
            obs_metrics.inc("serve.sim_invocations")
            obs_metrics.inc("serve.blocks_total", len(blocks))
            # Labelled twins: rendered by /metrics as
            # repro_serve_blocks_total{design="…",engine="…"} series.
            obs_metrics.inc(
                f"serve.blocks_total|design={self.name},engine={engine}",
                len(blocks))
            obs_metrics.inc(
                f"serve.sim_invocations|design={self.name},engine={engine}")
            obs_metrics.observe("serve.batch_size", len(blocks))
            if engine == "model":
                return self._evaluate_model(blocks)
            return self._stream_harness().run_blocks(blocks)

    def _evaluate_model(self, blocks: list[Block]) -> list[Block]:
        import numpy as np

        from ..idct.batch import batch_chen_wang

        out = batch_chen_wang(np.asarray(blocks, dtype=np.int64))
        return [[[int(v) for v in row] for row in block] for block in out]
