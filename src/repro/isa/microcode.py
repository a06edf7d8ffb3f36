"""Microcode assembly: schedule + allocation -> program ROM contents.

This is Step 4 of the paper's flow: "According to the scheduled
results, control signals for the datapath [are] automatically
generated."  A :class:`ControlWord` holds everything the datapath needs
in one cycle: what each functional unit issues (with operand sources:
register file ports or forwarding paths) and which results are written
back to which registers.

The program itself is held in decoded form: one flat :data:`Row` of
ints and tuples per cycle, which the simulator runs and the FSM
generator packs into the ROM image; :class:`ControlWord` objects are
built from the rows only when read (:func:`encode_rows`,
:func:`decode_words`).  A :class:`ProgramTemplate` keeps the row table
per workload shape, so :func:`assemble` and a cache hit alike patch the
mux-fed operand slots and build no per-cycle objects.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..sched.jobshop import JobShopProblem
from ..sched.schedule import Schedule
from ..trace.ops import MicroOp, OpKind, Unit
from .regalloc import Allocation, allocate_registers

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from ..trace.tracer import Tracer


class OperandSource(enum.Enum):
    """Where a unit input comes from in a given cycle."""

    REGISTER = "rf"
    FORWARD_MULT = "fwd_mult"
    FORWARD_ADDSUB = "fwd_addsub"


@dataclass(frozen=True)
class Operand:
    source: OperandSource
    register: int = -1  # valid when source is REGISTER

    def render(self) -> str:
        if self.source is OperandSource.REGISTER:
            return f"r{self.register}"
        return "M_out" if self.source is OperandSource.FORWARD_MULT else "S_out"


@dataclass(frozen=True)
class UnitIssue:
    """One functional-unit issue: the op and its operand routing."""

    kind: OpKind
    operands: Tuple[Operand, ...]
    dest_uid: int

    def render(self) -> str:
        args = ", ".join(o.render() for o in self.operands)
        return f"{self.kind.value}({args})"


@dataclass(frozen=True)
class Writeback:
    register: int
    unit: Unit
    uid: int


@dataclass
class ControlWord:
    """Control signals for one clock cycle."""

    cycle: int
    mult: Optional[UnitIssue] = None
    addsub: Optional[UnitIssue] = None
    writebacks: Tuple[Writeback, ...] = ()


#: Operand codes of the decoded ROM table: a register index (>= 0) or
#: one of the two forwarding paths.
FWD_MULT = -1
FWD_ADDSUB = -2

#: A decoded unit issue: ``(kind, operand codes, destination uid)``.
DecodedIssue = Tuple[OpKind, Tuple[int, ...], int]
#: One decoded control word: ``(writebacks, mult issue, addsub issue)``,
#: each writeback a ``(register, is_mult, uid)`` triple.
Row = Tuple[
    Tuple[Tuple[int, bool, int], ...], Optional[DecodedIssue], Optional[DecodedIssue]
]

_CODE_OF_SOURCE = {
    OperandSource.FORWARD_MULT: FWD_MULT,
    OperandSource.FORWARD_ADDSUB: FWD_ADDSUB,
}
_FORWARD_OPERAND = {
    FWD_MULT: Operand(source=OperandSource.FORWARD_MULT),
    FWD_ADDSUB: Operand(source=OperandSource.FORWARD_ADDSUB),
}


def decode_words(words: Sequence[ControlWord]) -> List[Row]:
    """Decode control words into the flat rows the simulator runs."""
    register = OperandSource.REGISTER
    code_of = _CODE_OF_SOURCE
    mult = Unit.MULTIPLIER

    def decode_issue(issue: Optional[UnitIssue]) -> Optional[DecodedIssue]:
        if issue is None:
            return None
        codes = [
            op.register if op.source is register else code_of[op.source]
            for op in issue.operands
        ]
        return (issue.kind, tuple(codes), issue.dest_uid)

    return [
        (
            tuple([(wb.register, wb.unit is mult, wb.uid) for wb in w.writebacks]),
            decode_issue(w.mult),
            decode_issue(w.addsub),
        )
        for w in words
    ]


def _encode_issue(issue: Optional[DecodedIssue]) -> Optional[UnitIssue]:
    if issue is None:
        return None
    kind, codes, dest = issue
    return UnitIssue(
        kind=kind,
        operands=tuple(
            Operand(source=OperandSource.REGISTER, register=c) if c >= 0 else _FORWARD_OPERAND[c]
            for c in codes
        ),
        dest_uid=dest,
    )


def encode_rows(rows: Sequence[Row]) -> List[ControlWord]:
    """Rebuild :class:`ControlWord` objects from decoded rows."""
    return [
        ControlWord(
            cycle=c,
            mult=_encode_issue(m),
            addsub=_encode_issue(a),
            writebacks=tuple(
                Writeback(
                    register=reg,
                    unit=Unit.MULTIPLIER if is_mult else Unit.ADDSUB,
                    uid=uid,
                )
                for reg, is_mult, uid in wbs
            ),
        )
        for c, (wbs, m, a) in enumerate(rows)
    ]


class MicroProgram:
    """The assembled program: ROM image + register-file preload + outputs.

    A program holds its ROM as the decoded rows a
    :class:`ProgramTemplate` binds (see :meth:`decode`) or as
    :class:`ControlWord` objects.  ``words`` is built from the rows on
    first read and from then on *is* the program: the simulator decodes
    it afresh on every run, so in-place edits to the words are always
    what executes.  ``golden`` holds the expected value of every uid
    (for a cache hit, the recording's own ``values`` column).
    """

    def __init__(
        self,
        preload: Dict[int, Tuple[int, int]],
        register_count: int,
        outputs: Dict[str, int],
        golden: List[Tuple[int, int]],
        uid_reg: Dict[int, int],
        words: Optional[List[ControlWord]] = None,
        rows: Optional[List[Row]] = None,
    ):
        if (words is None) == (rows is None):
            raise ValueError("a program is built from words or from rows, not both")
        self.preload = preload
        self.register_count = register_count
        self.outputs = outputs            # output name -> register
        self.golden = golden              # expected value by uid (self-check)
        self.uid_reg = uid_reg
        self._words = words
        self._rows = rows

    @property
    def words(self) -> List[ControlWord]:
        if self._words is None:
            self._words = encode_rows(self._rows)
            self._rows = None
        return self._words

    def decode(self) -> List[Row]:
        """The decoded ROM table: the rebound rows, or ``words`` decoded now."""
        if self._words is not None:
            return decode_words(self._words)
        return self._rows

    def __eq__(self, other: object) -> bool:
        """Programs are equal when they run the same decoded ROM."""
        if not isinstance(other, MicroProgram):
            return NotImplemented
        return (
            self.decode() == other.decode()
            and self.preload == other.preload
            and self.register_count == other.register_count
            and self.outputs == other.outputs
            and self.golden == other.golden
            and self.uid_reg == other.uid_reg
        )

    @property
    def cycles(self) -> int:
        return len(self._words if self._words is not None else self._rows)

    @property
    def rom_bits_per_word(self) -> int:
        """Width of one control word in the program ROM.

        Fields: 2 unit enables + 2x2 operand source selects (2 bits) +
        4 read addresses + 3-bit addsub opcode + 2 writeback enables +
        2 write addresses.
        """
        addr = max(1, math.ceil(math.log2(max(self.register_count, 2))))
        return 2 + 4 * 2 + 4 * addr + 3 + 2 + 2 * addr

    @property
    def rom_kilobits(self) -> float:
        return self.cycles * self.rom_bits_per_word / 1000.0


def assemble(
    problem: JobShopProblem,
    schedule: Schedule,
    trace: Sequence[MicroOp],
    outputs: Sequence[int],
    output_names: Optional[Dict[int, str]] = None,
    alloc: Optional[Allocation] = None,
    validate: bool = True,
) -> MicroProgram:
    """Assemble a validated schedule into a microprogram.

    ``alloc`` lets a caller reuse a register allocation computed for an
    earlier same-shape trace (allocation depends only on the schedule
    and the dependence structure, not on the concrete values), and
    ``validate=False`` skips re-validating a schedule already validated
    for this shape.  The program is the :class:`ProgramTemplate` of the
    shape bound to ``trace`` (whose uids are its positions, as every
    :class:`~repro.trace.tracer.Tracer` recording's are), so it holds
    decoded rows; ``words`` are built on first read.

    Raises ScheduleError (via validate) or ValueError on inconsistency.
    """
    if validate:
        schedule.validate()
    if alloc is None:
        alloc = allocate_registers(problem, schedule, trace, outputs)
    template = build_template(problem, schedule, trace, outputs, alloc, output_names)
    return template.bind(
        [op.kind for op in trace], [op.srcs for op in trace], [op.value for op in trace]
    )


@dataclass
class ProgramTemplate:
    """The decoded control ROM of one workload shape.

    ``assemble`` walks every task and resolves every operand per
    request, but only SELECT-routed operands (the constant-time mux
    paths: table entry and sign choices) actually vary between requests
    of the same shape — everything else (issue slots, forwarding
    decisions, writeback registers) is a pure shape function.  A
    template holds the ROM once, already decoded into the rows the
    simulator runs (:data:`Row`), and precomputes, for each mux-fed
    operand slot, the operand code of *every* possible mux leaf.
    :meth:`rebind` copies the row table and patches only those slots;
    it builds no per-cycle objects.
    """

    n_trace: int
    register_count: int
    rows: List[Row]
    #: (cycle, row position: 1 mult / 2 addsub,
    #:  ((operand index, select uid, {leaf uid: operand code}), ...))
    patches: List[Tuple[int, int, Tuple[Tuple[int, int, Dict[int, int]], ...]]]
    preload_slots: Tuple[Tuple[int, int], ...]  # (uid, register)
    out_static: Dict[str, int]                  # name -> register
    out_select: Tuple[Tuple[str, int], ...]     # (name, select uid)
    reg_of: Dict[int, int]

    def rebind(self, tracer: "Tracer") -> MicroProgram:
        """Assemble a program for a new same-shape recording.

        Reads the tracer's columns only: mux leaves resolve through
        ``srcs[uid][0]``, the preload and the golden vector come from
        ``values`` (the golden vector *is* that column).  Raises
        ValueError on a length mismatch and KeyError when a mux
        resolves to a leaf outside the precomputed set — both signal a
        shape mismatch; callers (the flow's cached fast path) catch
        them and fall back to the full flow.
        """
        return self.bind(tracer.kinds, tracer.srcs, tracer.values)

    def bind(
        self,
        kinds: Sequence[OpKind],
        srcs: Sequence[Tuple[int, ...]],
        values: List[Tuple[int, int]],
    ) -> MicroProgram:
        """:meth:`rebind` on bare ``kinds`` / ``srcs`` / ``values`` columns."""
        if len(kinds) != self.n_trace:
            raise ValueError(
                f"trace has {len(kinds)} ops, template expects {self.n_trace}"
            )
        rows = list(self.rows)
        select = OpKind.SELECT
        for cyc, pos, slots in self.patches:
            row = rows[cyc]
            kind, codes, dest = row[pos]
            codes = list(codes)
            for idx, uid, premap in slots:
                while kinds[uid] is select:
                    uid = srcs[uid][0]
                codes[idx] = premap[uid]
            issue = (kind, tuple(codes), dest)
            rows[cyc] = (row[0], issue, row[2]) if pos == 1 else (row[0], row[1], issue)
        outputs = dict(self.out_static)
        for name, uid in self.out_select:
            while kinds[uid] is select:
                uid = srcs[uid][0]
            outputs[name] = self.reg_of[uid]
        return MicroProgram(
            rows=rows,
            preload={reg: values[uid] for uid, reg in self.preload_slots},
            register_count=self.register_count,
            outputs=outputs,
            golden=values,
            uid_reg=self.reg_of,
        )


def build_template(
    problem: JobShopProblem,
    schedule: Schedule,
    trace: Sequence[MicroOp],
    outputs: Sequence[int],
    alloc: Allocation,
    output_names: Optional[Dict[int, str]] = None,
) -> ProgramTemplate:
    """Build a :class:`ProgramTemplate` from one solved shape instance.

    The reference ``trace`` only contributes structure: the template
    bound to any same-shape recording is that recording's program
    (:func:`assemble` is this function plus :meth:`ProgramTemplate.bind`
    on its own trace).
    """
    from ..sched.jobshop import resolve_select_all, resolve_select_chosen

    by_uid = {op.uid: op for op in trace}
    lat = problem.machine.latency
    start = schedule.start
    n_cycles = schedule.makespan + 1

    def code_for(leaf: int, cyc: int) -> int:
        producer_idx = problem.uid_to_index.get(leaf)
        if producer_idx is not None:
            p_unit = problem.tasks[producer_idx].unit
            if problem.machine.forwarding and cyc == start[producer_idx] + lat(p_unit):
                return FWD_MULT if p_unit is Unit.MULTIPLIER else FWD_ADDSUB
        return alloc.reg_of[leaf]

    issues: Tuple[List[Optional[DecodedIssue]], ...] = (
        [None] * n_cycles,  # multiplier
        [None] * n_cycles,  # adder/subtractor
    )
    wb_lists: List[List[Tuple[int, bool, int]]] = [[] for _ in range(n_cycles)]
    patches: List[Tuple[int, int, Tuple[Tuple[int, int, Dict[int, int]], ...]]] = []

    for t in problem.tasks:
        op = by_uid[t.uid]
        cyc = start[t.index]
        srcs = op.srcs if op.kind is not OpKind.SQR else (op.srcs[0], op.srcs[0])
        codes: List[int] = []
        slots: List[Tuple[int, int, Dict[int, int]]] = []
        for i, s in enumerate(srcs):
            if by_uid[s].kind is OpKind.SELECT:
                premap = {
                    leaf: code_for(leaf, cyc)
                    for leaf in resolve_select_all(by_uid, s)
                }
                codes.append(premap[resolve_select_chosen(by_uid, s)])
                slots.append((i, s, premap))
            else:
                codes.append(code_for(s, cyc))
        is_mult = t.unit is Unit.MULTIPLIER
        at = issues[0 if is_mult else 1]
        if at[cyc] is not None:
            raise ValueError(
                f"{'multiplier' if is_mult else 'addsub'} double-issue at cycle {cyc}"
            )
        at[cyc] = (op.kind, tuple(codes), t.uid)
        if slots:
            patches.append((cyc, 1 if is_mult else 2, tuple(slots)))
        wb_lists[cyc + lat(t.unit)].append((alloc.reg_of[t.uid], is_mult, t.uid))

    names = output_names or {}
    out_static: Dict[str, int] = {}
    out_select: List[Tuple[str, int]] = []
    for uid in outputs:
        name = names.get(uid) or by_uid[uid].name or f"v{uid}"
        if by_uid[uid].kind is OpKind.SELECT:
            out_select.append((name, uid))
        else:
            out_static[name] = alloc.reg_of[resolve_select_chosen(by_uid, uid)]

    preload_slots = tuple(
        (op.uid, alloc.reg_of[op.uid])
        for op in trace
        if op.kind in (OpKind.CONST, OpKind.INPUT)
    )
    return ProgramTemplate(
        n_trace=len(trace),
        register_count=alloc.register_count,
        rows=[(tuple(w), m, a) for w, m, a in zip(wb_lists, *issues)],
        patches=patches,
        preload_slots=preload_slots,
        out_static=out_static,
        out_select=tuple(out_select),
        reg_of=dict(alloc.reg_of),
    )
