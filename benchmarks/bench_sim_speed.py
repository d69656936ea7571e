"""Infrastructure benchmark: compiled-simulator throughput.

Not a paper artifact, but the quantity every experiment's wall-clock rests
on: cycles per second through the AXI-wrapped optimized Verilog IDCT —
for the scalar compiled engine and for the lane-packed batch engine —
and, on ``xls-s8``, whether the batch engine still wins on a design that
moves its outputs through a 768-bit bus.
"""

from repro import obs
from repro.api import Session
from repro.axis import StreamHarness
from repro.eval.verify import random_matrices
from repro.frontends.vlog import verilog_opt
from repro.obs import trace as obs_trace
from repro.rtl import elaborate
from repro.sim import BatchSimulator, Simulator

BATCH_BLOCKS = 256
BATCH_LANES = 16
SCALAR_BLOCKS = 32


def test_sim_throughput(benchmark):
    design = verilog_opt()
    sim = Simulator(design.top)
    harness = StreamHarness(sim, design.spec)
    matrices = random_matrices(8)

    def run():
        outs, timing = harness.run_matrices(matrices)
        return timing.total_cycles

    cycles = benchmark(run)
    assert cycles > 60


def _span_stats(name):
    """(total seconds, total blocks) over ``name`` spans."""
    total_s = blocks = 0
    for record in obs_trace.events():
        if record.name == name and record.kind == "span":
            total_s += record.duration
            blocks += record.attrs.get("blocks",
                                       record.attrs.get("matrices", 0))
    return total_s, blocks


def test_sim_throughput_batch(benchmark):
    """Lane-packed batch engine vs the scalar compiled simulator.

    Each round streams :data:`BATCH_BLOCKS` random matrices through a
    16-lane :class:`BatchSimulator` harness — the production configuration of
    the serve tier's ``"batch"`` engine.  The >=5x acceptance bar is
    argued from obs span data rather than ad-hoc timing: ``sim.stream``
    and ``sim.batch.stream`` spans record duration, blocks, and (via the
    simulators' lifetime counters) combinational settle passes, so the
    win decomposes into its mechanism — lanes amortize the per-cycle
    Python cost, and lazy settling runs ~1 settle pass per cycle for the
    whole 16-block cohort where the scalar engine settles per block.
    """
    design = verilog_opt()
    runner = StreamHarness(BatchSimulator(design.top, BATCH_LANES), design.spec)
    blocks = [[list(row) for row in m]
              for m in random_matrices(BATCH_BLOCKS)]

    obs.enable()
    obs.clear()

    # Scalar reference leg, run in the same 8-block chunks as
    # test_sim_throughput above (the recorded baseline this engine is
    # gated against) so both sides pay comparable pipeline-fill costs.
    # It doubles as the bit-exactness oracle for the batch outputs.
    sim = Simulator(design.top)
    harness = StreamHarness(sim, design.spec)
    ref = []
    for at in range(0, SCALAR_BLOCKS, 8):
        sim.reset()
        outs, _timing = harness.run_matrices(blocks[at:at + 8])
        ref.extend(outs)
    scalar_s, scalar_blocks = _span_stats("sim.stream")
    scalar_settles = sim.settles  # lifetime counter, reset() keeps it
    assert scalar_blocks == SCALAR_BLOCKS

    outs = benchmark(runner.run_blocks, blocks)
    assert outs[:SCALAR_BLOCKS] == ref

    # Lifetime settles over lifetime blocks: correct across however many
    # rounds pytest-benchmark decided to run.
    batch_s, batch_blocks = _span_stats("sim.batch.stream")
    batch_settles = runner.sim.settles
    scalar_us = scalar_s * 1e6 / scalar_blocks
    batch_us = batch_s * 1e6 / batch_blocks
    speedup = scalar_us / batch_us
    print(f"\nscalar: {scalar_us:.0f} us/block "
          f"({scalar_settles / scalar_blocks:.1f} settles/block)")
    print(f"batch:  {batch_us:.0f} us/block over {batch_blocks} blocks "
          f"({batch_settles / batch_blocks:.2f} settles/block, "
          f"{BATCH_LANES} lanes)")
    print(f"speedup: {speedup:.2f}x (bar: >= 5x)")
    # Mechanism: the batch engine settles far fewer times per block.
    assert batch_settles / BATCH_BLOCKS < scalar_settles / scalar_blocks
    assert speedup >= 5.0
    obs.clear()


def test_sim_throughput_xls_batch(benchmark):
    """xls-s8 on 16 lanes is not slower per block than on one lane.

    The serve tier streams a request's blocks on the 16-lane harness for
    both its ``sim`` and ``batch`` engines, so the packed engine must not
    lose to the scalar compiled one on any served design.  xls-s8 is the
    case where it used to: its 768-bit output bus set a 769-bit lane
    stride until the packed lowering split wide buses into 96-bit
    fields.  Both legs stream the same :data:`BATCH_LANES` blocks, one as
    a single stream (``sim.stream`` span), one a block per lane
    (``sim.batch.stream`` span); the comparison is per block from the
    spans.
    """
    design = Session().build("xls-s8")
    netlist = elaborate(design.top)
    blocks = [[list(row) for row in m]
              for m in random_matrices(BATCH_LANES, seed=3)]
    scalar = StreamHarness(Simulator(netlist, engine="compiled"), design.spec)
    packed = StreamHarness(BatchSimulator(netlist, BATCH_LANES), design.spec)
    assert packed.sim.stride <= 97

    obs.enable()
    obs.clear()
    ref = scalar.run_blocks(blocks)
    outs = benchmark(packed.run_blocks, blocks)
    assert outs == ref

    scalar_s, scalar_blocks = _span_stats("sim.stream")
    batch_s, batch_blocks = _span_stats("sim.batch.stream")
    scalar_us = scalar_s * 1e6 / scalar_blocks
    batch_us = batch_s * 1e6 / batch_blocks
    print(f"\nxls-s8 scalar: {scalar_us:.0f} us/block, "
          f"batch: {batch_us:.0f} us/block ({BATCH_LANES} lanes, "
          f"stride {packed.sim.stride}); "
          f"speedup {scalar_us / batch_us:.2f}x (bar: >= 1x)")
    assert batch_us <= scalar_us
    obs.clear()
