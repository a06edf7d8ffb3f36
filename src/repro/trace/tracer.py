"""Execution-trace recorder: the paper's Step 1-2 of the design flow.

The SM algorithm "is written by using a Python script, whose execution
trace is recorded to extract the execution order of atomic operations
on F_{p^2}" (paper Section I / III-C).  :class:`Tracer` implements the
:class:`repro.curve.edwards.Fp2Ops` interface; running any of the
curve-level routines (point doubling, table construction, the full
Algorithm 1) with a Tracer as the ops object records the exact
micro-operation sequence while simultaneously computing concrete values
(so the trace is self-checking).

The recording is kept as flat columns indexed by uid — ``kinds``,
``srcs``, ``values`` — plus a ``{uid: name}`` map, and a traced value
is just its uid (a plain int).  A cache hit reads only the columns;
the :class:`MicroOp` view :attr:`Tracer.trace` is built on first read,
for the stages that derive a schedule (problem, regalloc, template,
optimizer).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ..field.fp2 import (
    Fp2Raw,
    fp2_add,
    fp2_conj,
    fp2_mul,
    fp2_neg,
    fp2_sqr,
    fp2_sub,
)
from .ops import UNIT_OF, MicroOp, OpKind, Unit

_MUL, _SQR, _ADD, _SUB, _NEG, _CONJ, _SELECT, _CONST, _INPUT = (
    OpKind.MUL, OpKind.SQR, OpKind.ADD, OpKind.SUB, OpKind.NEG, OpKind.CONJ,
    OpKind.SELECT, OpKind.CONST, OpKind.INPUT,
)

#: Op kinds that occupy a functional unit.
ARITHMETIC_KINDS = frozenset(k for k, u in UNIT_OF.items() if u is not Unit.NONE)


def count_arithmetic(kinds: Iterable[OpKind]) -> int:
    """Number of ops in a kinds column that occupy a functional unit."""
    arith = ARITHMETIC_KINDS
    return sum(1 for k in kinds if k in arith)


class Tracer:
    """Records micro-ops as columns; implements the Fp2Ops interface.

    Op ``uid`` is recorded as ``kinds[uid]`` / ``srcs[uid]`` (source
    uids; a SELECT lists its chosen source first) / ``values[uid]`` (the
    concrete value: the golden reference of the simulation), with its
    label, if any, in ``names``.  Every handle the Fp2Ops methods take
    and return is such a uid.

    Section markers (:meth:`begin_section`) tag ranges of the trace for
    profiling (endomorphisms / table / main loop / normalization).
    Constants are deduplicated by value — the hardware stores each ROM
    constant once.
    """

    def __init__(self) -> None:
        self.kinds: List[OpKind] = []
        self.srcs: List[Tuple[int, ...]] = []
        self.values: List[Fp2Raw] = []
        self.names: Dict[int, str] = {}
        self._const_cache: Dict[Fp2Raw, int] = {}
        self.inputs: List[int] = []
        self.outputs: List[int] = []
        self.live: List[int] = []
        self.sections: List[Tuple[str, int, int]] = []
        self._open_sections: List[Tuple[str, int]] = []
        self._trace: List[MicroOp] = []
        self._bind_appends()

    def _bind_appends(self) -> None:
        # Bound appends: the op methods run once per recorded op on the
        # serving path.
        self._kind = self.kinds.append
        self._srcs = self.srcs.append
        self._value = self.values.append

    def __getstate__(self) -> Dict:
        state = self.__dict__.copy()
        for name in ("_kind", "_srcs", "_value"):
            del state[name]  # rebound to the copied columns below
        return state

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)
        self._bind_appends()

    @property
    def trace(self) -> List[MicroOp]:
        """The recording as :class:`MicroOp` objects (uid == index).

        Built on first read and extended as recording goes on; a view,
        so edits to it do not reach the columns.
        """
        trace = self._trace
        n = len(trace)
        if n < len(self.kinds):
            names = self.names
            trace.extend(
                MicroOp(uid, kind, srcs, value, names.get(uid, ""))
                for uid, kind, srcs, value in zip(
                    range(n, len(self.kinds)),
                    self.kinds[n:],
                    self.srcs[n:],
                    self.values[n:],
                )
            )
        return trace

    # -- recording helpers -------------------------------------------
    def record(
        self, kind: OpKind, srcs: Tuple[int, ...], value: Fp2Raw, name: str = ""
    ) -> int:
        """Append one micro-op and return its uid."""
        uid = len(self.kinds)
        self._kind(kind)
        self._srcs(srcs)
        self._value(value)
        if name:
            self.names[uid] = name
        return uid

    # -- Fp2Ops interface ---------------------------------------------
    def mul(self, a: int, b: int) -> int:
        values = self.values
        uid = len(values)
        self._value(fp2_mul(values[a], values[b]))
        self._kind(_MUL)
        self._srcs((a, b))
        return uid

    def sqr(self, a: int) -> int:
        values = self.values
        uid = len(values)
        self._value(fp2_sqr(values[a]))
        self._kind(_SQR)
        self._srcs((a,))
        return uid

    def add(self, a: int, b: int) -> int:
        values = self.values
        uid = len(values)
        self._value(fp2_add(values[a], values[b]))
        self._kind(_ADD)
        self._srcs((a, b))
        return uid

    def sub(self, a: int, b: int) -> int:
        values = self.values
        uid = len(values)
        self._value(fp2_sub(values[a], values[b]))
        self._kind(_SUB)
        self._srcs((a, b))
        return uid

    def neg(self, a: int) -> int:
        values = self.values
        uid = len(values)
        self._value(fp2_neg(values[a]))
        self._kind(_NEG)
        self._srcs((a,))
        return uid

    def conj(self, a: int) -> int:
        values = self.values
        uid = len(values)
        self._value(fp2_conj(values[a]))
        self._kind(_CONJ)
        self._srcs((a,))
        return uid

    def select(self, chosen: int, *alternatives: int) -> int:
        """A constant-time mux: value of ``chosen``, dependency on all.

        ``chosen`` must be one of ``alternatives``; the emitted SELECT op
        lists the chosen source first.
        """
        if chosen not in alternatives:
            raise ValueError("chosen value is not among the alternatives")
        values = self.values
        uid = len(values)
        self._value(values[chosen])
        self._kind(_SELECT)
        self._srcs((chosen,) + tuple([u for u in alternatives if u != chosen]))
        return uid

    def const(self, value: Fp2Raw, name: str = "const") -> int:
        cached = self._const_cache.get(value)
        if cached is not None:
            return cached
        uid = self.record(_CONST, (), value, name)
        self._const_cache[value] = uid
        return uid

    # -- program boundary ----------------------------------------------
    def input(self, value: Fp2Raw, name: str) -> int:
        """Declare a register-file-preloaded input value."""
        uid = self.record(_INPUT, (), value, name)
        self.inputs.append(uid)
        return uid

    def mark_output(self, uid: int, name: str = "") -> None:
        """Declare a trace value as a program output (kept live)."""
        self.outputs.append(uid)
        if name and uid not in self.names:
            self.names[uid] = name
            if uid < len(self._trace):
                self._trace[uid] = self._trace[uid]._replace(name=name)

    def mark_live(self, uid: int) -> None:
        """Pin a value as live without declaring it a program output.

        The optimizer's dead-value elimination treats ``outputs`` and
        ``live`` as its liveness roots; everything unreachable from them
        is deleted.  Balanced-op-pattern workloads (constant-time code
        that issues an op and discards the result so both branches cost
        the same) must pin those intentionally dead results here, or the
        optimizer would change the trace shape between branches.
        ``mark_live`` also shields the value from being merged away by
        common-subexpression elimination.
        """
        self.live.append(uid)

    # -- sections --------------------------------------------------------
    def begin_section(self, name: str) -> None:
        self._open_sections.append((name, len(self.kinds)))

    def end_section(self) -> None:
        name, start = self._open_sections.pop()
        self.sections.append((name, start, len(self.kinds)))

    # -- stats -----------------------------------------------------------
    def op_counts(self) -> Dict[OpKind, int]:
        counts: Dict[OpKind, int] = {}
        for kind in self.kinds:
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def arithmetic_size(self) -> int:
        """Number of ops that occupy a functional unit."""
        return count_arithmetic(self.kinds)

    def multiplier_ops(self) -> int:
        return sum(1 for k in self.kinds if UNIT_OF[k] is Unit.MULTIPLIER)

    def addsub_ops(self) -> int:
        return sum(1 for k in self.kinds if UNIT_OF[k] is Unit.ADDSUB)

    def multiplication_share(self) -> float:
        """Fraction of arithmetic ops that are multiplications.

        This is the statistic behind the paper's design decision: "our
        in-house profiling of FourQ's SM revealed that F_{p^2}
        multiplications account for 57% of the total arithmetic
        operations" (Section III-B).
        """
        total = self.arithmetic_size()
        if total == 0:
            return 0.0
        return self.multiplier_ops() / total
