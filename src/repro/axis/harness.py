"""Stream testbench harness: drivers, protocol monitor, timing measurement.

:class:`StreamHarness` pushes matrices through a generated AXI-Stream
wrapper, applies configurable valid/ready patterns, checks the AXI-Stream
protocol rules every cycle, and measures the paper's timing indicators:

* latency ``T_L``     — cycles from a matrix's first accepted input beat to
  its last output beat (inclusive), "including I/O transmission";
* periodicity ``T_P`` — steady-state distance in cycles between the starts
  (first accepted beats) of consecutive operations.

One per-cycle driver serves every lane of a :class:`~repro.sim.Simulator`
on one shared clock: one lane on any engine, or ``B`` lockstep lanes on
``engine="batch"``, where one lane-packed settle evaluates every design
copy.  Each lane carries its own stream, protocol monitor and timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..core.errors import HarnessTimeout, ProtocolError, SimulationError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .spec import KernelSpec
from .wrapper import AxisPorts

__all__ = ["StreamTiming", "StreamHarness", "pack_row", "unpack_row", "always", "every"]


def pack_row(values: Sequence[int], width: int) -> int:
    """Pack signed element values into one stream beat (element 0 = LSBs)."""
    mask = (1 << width) - 1
    word = 0
    for value in reversed(values):
        word = (word << width) | (value & mask)
    return word


def unpack_row(word: int, count: int, width: int, signed: bool = True) -> list[int]:
    """Unpack one stream beat into element values."""
    return _rows_unpacker(count, width, signed)([word])[0]


def _rows_unpacker(count: int, width: int,
                   signed: bool) -> Callable[[list[int]], list[list[int]]]:
    """:func:`unpack_row` over a list of beats, for hot loops."""
    mask = (1 << width) - 1
    sign = 1 << (width - 1) if signed else 0   # branchless sign extension
    shifts = range(0, count * width, width)
    return lambda words: [[((word >> shift) & mask ^ sign) - sign
                           for shift in shifts] for word in words]


def always(_cycle: int) -> bool:
    """Valid/ready pattern: asserted every cycle."""
    return True


def every(n: int, offset: int = 0) -> Callable[[int], bool]:
    """Valid/ready pattern: asserted one cycle in ``n``."""
    def pattern(cycle: int) -> bool:
        return (cycle + offset) % n == 0
    return pattern


@dataclass
class StreamTiming:
    """Measured timing of a streamed run."""

    latency: int          # T_L of the first matrix
    periodicity: int      # steady-state T_P (max start distance after warm-up)
    start_cycles: list[int] = field(default_factory=list)
    finish_cycles: list[int] = field(default_factory=list)
    total_cycles: int = 0
    out_stalls: int = 0   # cycles the design had output valid but no ready
    in_stalls: int = 0    # cycles input was offered but the design stalled it

    @classmethod
    def measure(cls, starts: list[int], finishes: list[int], total_cycles: int,
                out_stalls: int, in_stalls: int) -> "StreamTiming":
        """Timing from each matrix's first-accept and last-output cycles."""
        latency = finishes[0] - starts[0] + 1
        if len(starts) >= 3:
            # Steady state: skip the first interval (pipeline warm-up).
            periodicity = max(b - a for a, b in zip(starts[1:], starts[2:]))
        elif len(starts) == 2:
            periodicity = starts[1] - starts[0]
        else:
            periodicity = latency
        return cls(latency=latency, periodicity=periodicity,
                   start_cycles=starts, finish_cycles=finishes,
                   total_cycles=total_cycles, out_stalls=out_stalls,
                   in_stalls=in_stalls)


#: Wrapper ports in the order the driver looks up their slots.
_PORTS = (AxisPorts.S_TVALID, AxisPorts.S_TDATA, AxisPorts.S_TLAST,
          AxisPorts.M_TREADY, AxisPorts.S_TREADY, AxisPorts.M_TVALID,
          AxisPorts.M_TDATA, AxisPorts.M_TLAST, AxisPorts.ERROR)


class StreamHarness:
    """Drives a wrapped design's stream ports on every lane of a simulator.

    ``simulator`` is a :class:`~repro.sim.Simulator` with any number of
    ``lanes`` (lockstep copies); the harness uses only its slot interface
    (``slot``, ``poke_slot``, ``peek_slot`` which settles lazily, ``step``,
    ``reset``, ``lanes``, ``stride``).  After each run,
    :attr:`lane_timings` holds one :class:`StreamTiming` per lane that
    streamed at least one matrix.  Streaming no matrix at all raises
    :class:`~repro.core.errors.SimulationError`.
    """

    def __init__(self, simulator, spec: KernelSpec) -> None:
        self.sim = simulator
        self.spec = spec
        self.lane_timings: list[StreamTiming] = []

    # ------------------------------------------------------------------
    def run_matrices(
        self,
        matrices: Sequence[Sequence[Sequence[int]]],
        valid_pattern: Callable[[int], bool] = always,
        ready_pattern: Callable[[int], bool] = always,
        timeout: int | None = None,
        signed_output: bool = True,
    ) -> tuple[list[list[list[int]]], StreamTiming]:
        """Stream ``matrices`` in on lane 0 and collect the same number out.

        Returns ``(output_matrices, timing)``.  Raises
        :class:`ProtocolError` on any AXI-Stream violation (TVALID
        retraction, TDATA instability during a stall, TLAST misalignment,
        or the wrapper's sticky error flag), and
        :class:`~repro.core.errors.HarnessTimeout` — carrying the cycles
        elapsed and beats consumed/produced — when the stream does not
        complete within ``timeout`` cycles.  Either propagates through the
        enclosing ``sim.stream`` span, which records the error status.
        """
        with obs_trace.span("sim.stream", matrices=len(matrices)) as span:
            settles_before = self.sim.settles
            lane_outputs, cycles = self._stream(
                [matrices], valid_pattern, ready_pattern, timeout,
                signed_output, "sim.stream")
            outputs, timing = lane_outputs[0], self.lane_timings[0]
            if obs_trace.enabled():
                obs_metrics.inc("sim.runs")
                obs_metrics.inc("sim.cycles", cycles)
                obs_metrics.inc("axis.stalls", timing.out_stalls)
                obs_metrics.inc("axis.backpressure", timing.in_stalls)
                settles = self.sim.settles - settles_before
                obs_metrics.set_gauge(
                    "sim.evals_per_cycle", round(settles / max(1, cycles), 3)
                )
                span.set(cycles=cycles, latency=timing.latency,
                         periodicity=timing.periodicity,
                         stalls=timing.out_stalls,
                         backpressure=timing.in_stalls)
            return outputs, timing

    def run_blocks(
        self,
        blocks: Sequence[Sequence[Sequence[int]]],
        valid_pattern: Callable[[int], bool] = always,
        ready_pattern: Callable[[int], bool] = always,
        timeout: int | None = None,
        signed_output: bool = True,
    ) -> list[list[list[int]]]:
        """Reset the simulator and stream ``blocks`` split across its lanes.

        Lane ``i`` streams the ``i``-th contiguous chunk of
        ``ceil(N / lanes)`` blocks; a lane that runs out of input idles
        until the others finish.  Returns the outputs in block order and
        raises like :meth:`run_matrices`.  On one lane this *is* one
        :meth:`run_matrices` stream.
        """
        sim = self.sim
        if sim.lanes == 1:
            sim.reset()
            return self.run_matrices(blocks, valid_pattern, ready_pattern,
                                     timeout, signed_output)[0]
        size = max(1, -(-len(blocks) // sim.lanes))
        chunks = [blocks[at:at + size] for at in range(0, len(blocks), size)]
        with obs_trace.span("sim.batch.stream", blocks=len(blocks),
                            lanes=sim.lanes) as span:
            sim.reset()
            outputs, cycles = self._stream(
                chunks, valid_pattern, ready_pattern, timeout, signed_output,
                "sim.batch.stream")
            if obs_trace.enabled():
                obs_metrics.inc("sim.batch.runs")
                obs_metrics.inc("sim.batch.cycles", cycles)
                obs_metrics.inc("sim.batch.blocks", len(blocks))
                span.set(cycles=cycles, settles=sim.settles)
            return [block for lane in outputs for block in lane]

    # ------------------------------------------------------------------
    def _stream(self, chunks, valid_pattern, ready_pattern, timeout,
                signed_output, phase):
        """Stream ``chunks[i]`` through lane ``i``, all lanes on one clock.

        Returns each lane's output matrices and the cycles run, and sets
        :attr:`lane_timings`.  Packed values hold lane ``i`` at bit
        ``i * stride``; the valid/ready patterns apply to every lane.
        """
        sim, spec = self.sim, self.spec
        if not any(map(len, chunks)):
            # No matrix means no timing to measure, on any lane count.
            raise SimulationError("no matrices to stream", phase=phase)
        rows = spec.rows
        chunks = list(chunks) + [[]] * (sim.lanes - len(chunks))
        shifts = [lane * sim.stride for lane in range(sim.lanes)]
        in_mask = (1 << spec.in_row_bits) - 1
        out_mask = (1 << spec.out_row_bits) - 1
        # Each beat is its (TDATA, TLAST) already shifted into its lane.
        lane_beats: list[list[tuple[int, int]]] = []
        for shift, chunk in zip(shifts, chunks):
            beats = []
            for matrix in chunk:
                if len(matrix) != rows:
                    raise SimulationError(f"matrix must have {rows} rows",
                                          phase=phase)
                for r, row in enumerate(matrix):
                    beats.append(((pack_row(row, spec.in_width) & in_mask) << shift,
                                  (r == rows - 1) << shift))
            lane_beats.append(beats)
        if timeout is None:
            timeout = 64 * (max(map(len, lane_beats)) + 64)

        (s_tvalid, s_tdata, s_tlast, m_tready, s_tready, m_tvalid,
         m_tdata, m_tlast, error) = map(sim.slot, _PORTS)
        poke, peek = sim.poke_slot, sim.peek_slot
        every_lane = sum(1 << shift for shift in shifts)
        # Lockstep lanes repeat a few packed masks cycle after cycle, so
        # each mask is split into lanes once.
        lanes_of: dict[int, list[int]] = {}

        def lanes_in(mask: int) -> list[int]:
            """The lanes whose bit is set in a packed 1-bit value."""
            lanes = lanes_of.get(mask)
            if lanes is None:
                lanes = lanes_of[mask] = [
                    lane for lane, shift in enumerate(shifts) if mask >> shift & 1]
            return lanes

        # Each lane's progress, and the packed beat every lane offers next.
        next_beat = [0] * sim.lanes
        in_cycles: list[list[int]] = [[] for _ in shifts]
        out_cycles: list[list[int]] = [[] for _ in shifts]
        out_words: list[list[int]] = [[] for _ in shifts]
        in_stalls = [0] * sim.lanes
        out_stalls = [0] * sim.lanes
        remaining = sum(map(len, lane_beats))
        data = last = pending = 0
        for shift, beats in zip(shifts, lane_beats):
            if beats:
                data |= beats[0][0]
                last |= beats[0][1]
                pending |= 1 << shift

        prev_valid = prev_data = prev_last = 0
        prev_ready = every_lane
        cycle = 0
        while remaining:
            valid = pending if valid_pattern(cycle) else 0
            ready = every_lane if ready_pattern(cycle) else 0
            poke(s_tvalid, valid)
            poke(s_tdata, data)
            poke(s_tlast, last)
            poke(m_tready, ready)
            # The flag is a register, so this settle shows the state the
            # last clock edge left.
            if peek(error):
                raise ProtocolError(f"wrapper raised sticky error at cycle {cycle}")
            if cycle > timeout:
                self._timeout(phase, cycle, next_beat, lane_beats, out_words)
            in_ready = peek(s_tready)
            out_valid = peek(m_tvalid)
            out_data = peek(m_tdata)
            out_last = peek(m_tlast)

            # Protocol monitor: no TVALID retraction / TDATA change while
            # stalled.  TREADY is all-or-nothing across lanes.
            stalled = 0 if prev_ready else prev_valid
            if stalled:
                if stalled & ~out_valid:
                    raise ProtocolError(f"TVALID retracted during stall at cycle {cycle}")
                if ((out_data ^ prev_data) & stalled * out_mask
                        or (out_last ^ prev_last) & stalled):
                    raise ProtocolError(f"TDATA/TLAST changed during stall at cycle {cycle}")

            accept = valid & in_ready
            for lane in lanes_in(valid ^ accept):
                in_stalls[lane] += 1
            for lane in lanes_in(accept):
                in_cycles[lane].append(cycle)
                beats = lane_beats[lane]
                nb = next_beat[lane] = next_beat[lane] + 1
                # XOR swaps the accepted beat for the lane's next one.
                word, is_last = beats[nb - 1]
                next_word, next_last = beats[nb] if nb < len(beats) else (0, 0)
                data ^= word ^ next_word
                last ^= is_last ^ next_last
                if nb == len(beats):
                    pending ^= 1 << shifts[lane]
            sent = out_valid & ready
            for lane in lanes_in(out_valid ^ sent):
                out_stalls[lane] += 1
            for lane in lanes_in(sent):
                words = out_words[lane]
                if len(words) == len(lane_beats[lane]):
                    raise ProtocolError(
                        f"lane {lane} produced an unexpected output beat "
                        f"at cycle {cycle}")
                expect_last = len(words) % rows == rows - 1
                if (out_last >> shifts[lane] & 1) != expect_last:
                    raise ProtocolError(
                        f"TLAST misaligned at output beat {len(words)} "
                        f"of lane {lane} (cycle {cycle})")
                words.append(out_data >> shifts[lane] & out_mask)
                out_cycles[lane].append(cycle)
                remaining -= 1

            prev_valid, prev_ready = out_valid, ready
            prev_data, prev_last = out_data, out_last
            sim.step()
            cycle += 1

        if peek(error):
            raise ProtocolError(f"wrapper raised sticky error at cycle {cycle}")

        self.lane_timings = [
            StreamTiming.measure(
                in_cycles[lane][::rows], out_cycles[lane][rows - 1::rows],
                total_cycles=cycle, out_stalls=out_stalls[lane],
                in_stalls=in_stalls[lane])
            for lane, beats in enumerate(lane_beats) if beats
        ]
        unpack = _rows_unpacker(spec.cols, spec.out_width, signed_output)
        outputs = [[unpack(words[at:at + rows])
                    for at in range(0, len(words), rows)]
                   for words in out_words]
        return outputs, cycle

    @staticmethod
    def _timeout(phase, cycle, next_beat, lane_beats, out_words):
        beats_in = sum(next_beat)
        beats_out = sum(map(len, out_words))
        expected = sum(map(len, lane_beats))
        obs_trace.event(f"{phase}.timeout", cycles=cycle, beats_in=beats_in,
                        beats_out=beats_out, expected_out=expected)
        obs_metrics.inc("sim.stream.timeouts")
        raise HarnessTimeout(
            f"stream run timed out at cycle {cycle} "
            f"({beats_in}/{expected} beats in, "
            f"{beats_out}/{expected} beats out)",
            phase=phase, cycles=cycle,
            beats_in=beats_in, beats_out=beats_out,
        )
