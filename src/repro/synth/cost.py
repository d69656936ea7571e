"""Per-node area and delay formulas (technology mapping model).

Each RTL expression node maps to fabric resources: carry chains for
adders/comparators, LUT trees for logic and muxes, DSP slices or partial
product arrays for multipliers.  Constant multiplication is special-cased
into a canonical-signed-digit shift-add tree — the dominant area term of a
DSP-disabled IDCT, which the paper's normalized area metric relies on.

Only the node itself is costed here; :mod:`repro.synth.analyze` costs each
entry of the netlist's :func:`repro.rtl.ir.graph` (shared nodes counted
once, duplicated nodes counted per copy, like real synthesis without
resource sharing) and accumulates totals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..rtl.ir import (
    BinOp,
    BinOpKind,
    Cat,
    Const,
    Expr,
    Ext,
    MemRead,
    Mux,
    Ref,
    Slice,
    UnOp,
    UnOpKind,
)
from .tech import Tech

__all__ = ["NodeCost", "node_cost", "is_variable_mult", "is_dsp_candidate", "mult_dsp_count"]

_LOGIC_BINOPS = {BinOpKind.AND, BinOpKind.OR, BinOpKind.XOR}
_CARRY_COMPARES = {
    BinOpKind.ULT, BinOpKind.ULE, BinOpKind.UGT, BinOpKind.UGE,
    BinOpKind.SLT, BinOpKind.SLE, BinOpKind.SGT, BinOpKind.SGE,
}
_EQ_COMPARES = {BinOpKind.EQ, BinOpKind.NE}
_SHIFTS = {BinOpKind.SHL, BinOpKind.LSHR, BinOpKind.ASHR}
_MULS = {BinOpKind.MUL, BinOpKind.MULS}


@dataclass(frozen=True)
class NodeCost:
    """Resources and propagation delay of one mapped node."""

    luts: float
    dsps: int
    delay: float  # ns through the node (input-to-output)


def _adder_delay(width: int, tech: Tech) -> float:
    """Carry-chain delay of a ``width``-bit add/sub/compare."""
    return tech.t_carry_base + width * tech.t_carry_bit + tech.t_lut + tech.t_net


def _tree_levels(fanin: int, arity: int = 6) -> int:
    """Depth of a reduction tree over ``fanin`` items with LUT ``arity``."""
    if fanin <= 1:
        return 0
    return max(1, math.ceil(math.log(fanin, arity)))


def _csd_digits(value: int, tech: Tech) -> int:
    """Estimated non-zero canonical-signed-digit count of a constant."""
    value = abs(value)
    if value == 0:
        return 0
    ones = bin(value).count("1")
    return max(1, round(ones * tech.csd_digits_factor))


def is_variable_mult(expr: Expr) -> bool:
    """True for a multiplier with two non-constant operands."""
    return (
        isinstance(expr, BinOp)
        and expr.kind in _MULS
        and not isinstance(expr.a, Const)
        and not isinstance(expr.b, Const)
    )


def is_dsp_candidate(expr: Expr, tech: Tech) -> bool:
    """Multipliers worth a DSP slice: variable, or constant with a dense
    enough CSD form that a DSP beats the shift-add tree (what Vivado's
    inference does with the IDCT coefficients)."""
    if is_variable_mult(expr):
        return True
    if isinstance(expr, BinOp) and expr.kind in _MULS:
        const = expr.a if isinstance(expr.a, Const) else expr.b
        if isinstance(const, Const):
            value = const.value
            if expr.kind is BinOpKind.MULS and const.value >> (const.width - 1):
                value = const.value - (1 << const.width)
            return _csd_digits(value, tech) >= 3
    return False


def mult_dsp_count(expr: BinOp, tech: Tech) -> int:
    """DSP slices needed to map a multiplier (constant ones take one)."""
    if isinstance(expr.a, Const) or isinstance(expr.b, Const):
        return 1
    wa, wb = expr.a.width, expr.b.width
    if wa < wb:
        wa, wb = wb, wa
    return max(1, math.ceil(wa / tech.dsp_a_width) * math.ceil(wb / tech.dsp_b_width))


def _const_mult_cost(expr: BinOp, tech: Tech, allow_dsp: bool = False) -> NodeCost:
    """Constant multiplier: DSP slice when allowed and dense, else a
    canonical-signed-digit shift-add tree."""
    if allow_dsp and is_dsp_candidate(expr, tech) and not is_variable_mult(expr):
        return NodeCost(luts=0.0, dsps=1, delay=tech.t_dsp + tech.t_net)
    if isinstance(expr.a, Const):
        const, var = expr.a, expr.b
    else:
        const, var = expr.b, expr.a  # type: ignore[assignment]
    signed_value = const.value
    if expr.kind is BinOpKind.MULS and const.value >> (const.width - 1):
        signed_value = const.value - (1 << const.width)
    digits = _csd_digits(signed_value, tech)
    if digits <= 1:
        # Power of two (or zero): pure wiring.
        return NodeCost(luts=0.0, dsps=0, delay=0.0)
    adders = digits - 1
    width = var.width + const.width
    luts = adders * width * tech.luts_per_add_bit
    levels = max(1, math.ceil(math.log2(digits)))
    return NodeCost(luts=luts, dsps=0, delay=levels * _adder_delay(width, tech))


def _variable_mult_cost(expr: BinOp, tech: Tech, allow_dsp: bool) -> NodeCost:
    wa, wb = expr.a.width, expr.b.width
    if allow_dsp:
        dsps = mult_dsp_count(expr, tech)
        # Multi-DSP multipliers need partial product recombination adders.
        extra_levels = max(0, math.ceil(math.log2(dsps + 1)) - 1)
        delay = tech.t_dsp + tech.t_net + extra_levels * _adder_delay(wa + wb, tech)
        return NodeCost(luts=0.0, dsps=dsps, delay=delay)
    luts = tech.lut_mult_factor * wa * wb
    levels = max(1, math.ceil(math.log2(min(wa, wb) + 1)))
    delay = levels * tech.t_mult_level + _adder_delay(wa + wb, tech) + tech.t_net
    return NodeCost(luts=luts, dsps=0, delay=delay)


def node_cost(expr: Expr, tech: Tech, allow_dsp: bool = True) -> NodeCost:
    """Area and delay of one expression node (children excluded)."""
    if isinstance(expr, (Const, Ref, Cat, Slice, Ext)):
        return NodeCost(0.0, 0, 0.0)

    if isinstance(expr, BinOp):
        kind, width = expr.kind, expr.width
        if kind in (BinOpKind.ADD, BinOpKind.SUB):
            return NodeCost(width * tech.luts_per_add_bit, 0, _adder_delay(width, tech))
        if kind in _MULS:
            if isinstance(expr.a, Const) or isinstance(expr.b, Const):
                return _const_mult_cost(expr, tech, allow_dsp)
            return _variable_mult_cost(expr, tech, allow_dsp)
        if kind in _LOGIC_BINOPS:
            return NodeCost(
                width * tech.luts_per_logic_bit, 0, tech.t_lut + tech.t_net
            )
        if kind in _EQ_COMPARES:
            fanin = expr.a.width
            levels = 1 + _tree_levels(math.ceil(fanin / 3))
            return NodeCost(
                max(1.0, fanin / 3), 0, levels * (tech.t_lut + tech.t_net)
            )
        if kind in _CARRY_COMPARES:
            fanin = expr.a.width
            return NodeCost(
                fanin * tech.luts_per_add_bit, 0, _adder_delay(fanin, tech)
            )
        if kind in _SHIFTS:
            if isinstance(expr.b, Const):
                return NodeCost(0.0, 0, 0.0)  # constant shift is wiring
            levels = max(1, math.ceil(math.log2(max(2, expr.width))))
            luts = expr.width * levels * tech.luts_per_shift_bit_level
            return NodeCost(luts, 0, levels * (tech.t_lut + tech.t_net))
        raise ValueError(f"unmapped binop {kind}")

    if isinstance(expr, UnOp):
        width = expr.a.width
        if expr.kind is UnOpKind.NEG:
            return NodeCost(width * tech.luts_per_add_bit, 0, _adder_delay(width, tech))
        if expr.kind is UnOpKind.NOT:
            # Inverters usually fold into neighbouring LUTs.
            return NodeCost(width * 0.15, 0, tech.t_lut * 0.5)
        # Reductions: LUT6 tree.
        levels = max(1, _tree_levels(width))
        return NodeCost(max(1.0, width / 5), 0, levels * (tech.t_lut + tech.t_net))

    if isinstance(expr, Mux):
        width = expr.width
        return NodeCost(width * tech.luts_per_mux_bit, 0, tech.t_mux)

    if isinstance(expr, MemRead):
        memory = expr.memory
        big = memory.size_bits > tech.bram_threshold_bits  # type: ignore[attr-defined]
        delay = (tech.t_bram if big else tech.t_lutram) + tech.t_net
        return NodeCost(0.0, 0, delay)

    raise ValueError(f"unmapped node {type(expr).__name__}")
