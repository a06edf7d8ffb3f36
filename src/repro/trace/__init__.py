"""Execution-trace recording (the paper's automated design flow, steps 1-2).

Run the real Python implementation of FourQ's scalar multiplication
with a :class:`Tracer` as the arithmetic backend; out comes the exact
micro-instruction stream, with dependencies, concrete golden values,
and section annotations — the input to the job-shop scheduler.
"""

from .ops import UNIT_OF, MicroOp, OpKind, Unit
from .program import (
    TraceProgram,
    trace_double_scalar_mult,
    trace_loop_iteration,
    trace_loop_iterations,
    trace_msm_window,
    trace_scalar_mult,
)
from .tracer import Tracer

__all__ = [
    "MicroOp",
    "OpKind",
    "TraceProgram",
    "Tracer",
    "UNIT_OF",
    "Unit",
    "trace_double_scalar_mult",
    "trace_loop_iteration",
    "trace_loop_iterations",
    "trace_msm_window",
    "trace_scalar_mult",
]
