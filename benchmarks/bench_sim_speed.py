"""Infrastructure benchmark: compiled-simulator throughput.

Not a paper artifact, but the quantity every experiment's wall-clock rests
on: cycles per second through the AXI-wrapped optimized Verilog IDCT on
one :class:`~repro.sim.Simulator` class — one lane on the scalar
``compiled`` engine, and the lane-packed ``batch`` engine on 16 lanes
against one — and, on ``xls-s8``, whether the batch engine still wins
on a design that moves its outputs through a 768-bit bus.
"""

import statistics

from repro import obs
from repro.api import Session
from repro.axis import StreamHarness
from repro.eval.verify import random_matrices
from repro.frontends.vlog import verilog_opt
from repro.obs import trace as obs_trace
from repro.rtl import elaborate
from repro.sim import Simulator

BATCH_BLOCKS = 256
BATCH_LANES = 16
SCALAR_BLOCKS = 32
SCALAR_STREAMS = 5


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


def _median_us_per_block(run, name):
    """``run`` once untimed, then :data:`SCALAR_STREAMS` times; the median
    us/block of its ``name`` spans, and the blocks one run streams.

    One stream is too short to time alone: on unchanged code a single
    scalar leg read anywhere from 5x to 11x the packed one.  The first
    pass over a freshly compiled simulator runs slower still, so it is
    not timed.
    """
    run()
    per_block = []
    for _ in range(SCALAR_STREAMS):
        obs.clear()
        run()
        total_s, blocks = _span_stats(name)
        per_block.append(total_s * 1e6 / blocks)
    obs.clear()
    return statistics.median(per_block), blocks


def test_sim_throughput_batch(benchmark):
    """16 packed lanes vs one packed lane, with the scalar engine as oracle.

    Each round streams :data:`BATCH_BLOCKS` random matrices through a
    harness on ``Simulator(..., engine="batch", lanes=16)`` — the
    production configuration of the serve tier's ``"sim"`` and ``"batch"``
    engines.  The >=5x bar is on the mechanism it exists for: lanes
    amortize the per-cycle Python cost.  So it compares like with like,
    the same packed lowering and harness on one lane streaming as many
    blocks as each of the 16 lanes does.  Settling is part of that
    mechanism: every engine at every lane count settles lazily, about
    once per cycle, and on 16 lanes that one pass serves the whole
    cohort, so a block costs about a sixteenth of the settles it costs
    on one lane.  The argument is from obs span data
    (``sim.stream`` / ``sim.batch.stream`` durations and blocks) and the
    simulators' lifetime settle counters, not ad-hoc timing.

    The scalar ``compiled`` engine is the bit-exactness oracle, and 16
    lanes must not be slower per block than it.  That ratio is held only
    to >=1x: it moves whenever either engine's generated code changes, so
    a 5x bar on it would read a faster scalar engine as a batch
    regression.  Because a timing ratio can miss a slower op, the packed
    code must also make no per-lane fallback call.
    """
    design = verilog_opt()
    runner = StreamHarness(
        Simulator(design.top, engine="batch", lanes=BATCH_LANES), design.spec)
    blocks = [[list(row) for row in m]
              for m in random_matrices(BATCH_BLOCKS)]

    obs.enable()
    obs.clear()

    # Scalar leg, run in the same 8-block chunks as test_sim_throughput
    # above so both pay comparable pipeline-fill costs, and timed as the
    # median of SCALAR_STREAMS runs.  It is the bit-exactness oracle for
    # both packed legs.
    sim = Simulator(design.top)
    harness = StreamHarness(sim, design.spec)
    ref = []

    def scalar_leg():
        ref.clear()
        for at in range(0, SCALAR_BLOCKS, 8):
            sim.reset()
            outs, _timing = harness.run_matrices(blocks[at:at + 8])
            ref.extend(outs)

    scalar_us, scalar_blocks = _median_us_per_block(scalar_leg, "sim.stream")
    # Lifetime counter (reset() keeps it), over every run, the untimed
    # one too.
    scalar_settles = sim.settles / (SCALAR_STREAMS + 1)
    assert scalar_blocks == SCALAR_BLOCKS

    # One-lane leg: the same lowering and harness, each stream as deep as
    # one of the 16 lanes' share of a round.  It is the denominator of
    # the lane bar, so it is timed like the scalar leg.
    one = StreamHarness(Simulator(design.top, engine="batch", lanes=1),
                        design.spec)
    depth = BATCH_BLOCKS // BATCH_LANES

    def one_lane_leg():
        for at in range(0, SCALAR_BLOCKS, depth):
            assert one.run_blocks(blocks[at:at + depth]) == ref[at:at + depth]

    one_us, one_blocks = _median_us_per_block(one_lane_leg, "sim.stream")
    one_settles = one.sim.settles / (SCALAR_STREAMS + 1)
    assert one_blocks == SCALAR_BLOCKS

    # One untimed round, like every leg above.
    runner.run_blocks(blocks)
    warm_settles = runner.sim.settles
    obs.clear()
    outs = benchmark(runner.run_blocks, blocks)
    assert outs[:SCALAR_BLOCKS] == ref

    # Settles over blocks of the timed rounds: correct across however
    # many rounds pytest-benchmark decided to run.
    batch_s, batch_blocks = _span_stats("sim.batch.stream")
    batch_settles = runner.sim.settles - warm_settles
    batch_us = batch_s * 1e6 / batch_blocks
    lane_speedup = one_us / batch_us
    print(f"\nscalar: {scalar_us:.0f} us/block "
          f"({scalar_settles / scalar_blocks:.1f} settles/block)")
    print(f"batch, 1 lane: {one_us:.0f} us/block "
          f"({one_settles / one_blocks:.1f} settles/block)")
    print(f"batch:  {batch_us:.0f} us/block over {batch_blocks} blocks "
          f"({batch_settles / batch_blocks:.2f} settles/block, "
          f"{BATCH_LANES} lanes)")
    print(f"speedup over 1 lane: {lane_speedup:.2f}x (bar: >= 5x); "
          f"over scalar: {scalar_us / batch_us:.2f}x (bar: >= 1x)")
    # Mechanism: every packed operation works on all lanes at once (no
    # per-lane fallback call), and the batch engine settles far fewer
    # times per block.
    source = runner.sim.compiled_source
    assert "_pl1(" not in source
    assert "_pl2(" not in source
    assert batch_settles / batch_blocks < scalar_settles / scalar_blocks
    assert lane_speedup >= 5.0
    assert batch_us <= scalar_us
    obs.clear()


def test_sim_throughput_xls_batch(benchmark):
    """xls-s8 on 16 lanes is not slower per block than on one lane.

    The serve tier streams a request's blocks on the 16-lane harness for
    both its ``sim`` and ``batch`` engines, so the packed engine must not
    lose to the scalar compiled one on any served design.  xls-s8 is the
    case where it used to: its 768-bit output bus set a 769-bit lane
    stride until the packed lowering split wide buses into 96-bit
    fields.  Both legs stream the same :data:`BATCH_LANES` blocks, each
    after one untimed run: one as a single stream (``sim.stream`` span,
    the median of :data:`SCALAR_STREAMS` runs), one a block per lane
    (``sim.batch.stream`` span); the comparison is per block from the
    spans.
    """
    design = Session().build("xls-s8")
    netlist = elaborate(design.top)
    blocks = [[list(row) for row in m]
              for m in random_matrices(BATCH_LANES, seed=3)]
    scalar = StreamHarness(Simulator(netlist, engine="compiled"), design.spec)
    packed = StreamHarness(
        Simulator(netlist, engine="batch", lanes=BATCH_LANES), design.spec)
    assert packed.sim.stride <= 97

    obs.enable()
    outs = []
    scalar_us, _blocks = _median_us_per_block(
        lambda: outs.append(scalar.run_blocks(blocks)), "sim.stream")
    ref = outs[0]
    assert all(out == ref for out in outs)
    packed.run_blocks(blocks)  # untimed, like the scalar leg's first run
    obs.clear()
    outs = benchmark(packed.run_blocks, blocks)
    assert outs == ref

    batch_s, batch_blocks = _span_stats("sim.batch.stream")
    batch_us = batch_s * 1e6 / batch_blocks
    print(f"\nxls-s8 scalar: {scalar_us:.0f} us/block, "
          f"batch: {batch_us:.0f} us/block ({BATCH_LANES} lanes, "
          f"stride {packed.sim.stride}); "
          f"speedup {scalar_us / batch_us:.2f}x (bar: >= 1x)")
    assert batch_us <= scalar_us
    obs.clear()
