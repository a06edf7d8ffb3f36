"""Cycle-accurate datapath simulator.

Executes an assembled :class:`repro.isa.microcode.MicroProgram` on the
modeled datapath of Fig. 1: register file (4R/2W), pipelined Karatsuba
multiplier, adder/subtractor, forwarding paths, and the FSM sequencer
(here: the program counter walking the decoded ROM rows).  The unit
models of :mod:`repro.rtl.regfile`, :mod:`repro.rtl.multiplier` and
:mod:`repro.rtl.addsub` define the behaviour; the simulator runs it in
one fused loop over plain lists and calls their combinational
arithmetic directly.

Every writeback is checked against the golden value recorded in the
trace, so a passing simulation is a cycle-by-cycle, bit-exact proof
that the scheduled microprogram computes what the Python specification
computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..field.fp2 import Fp2Raw
from ..isa.microcode import FWD_MULT, MicroProgram
from ..trace.ops import OpKind
from .addsub import AddSubStats, fp2_addsub_compute
from .multiplier import MultiplierStats, karatsuba_fp2_multiply
from .regfile import PortViolation, RegisterFile

#: The register file's port budget (Section III-A: four read, two write).
READ_PORTS = RegisterFile.read_ports
WRITE_PORTS = RegisterFile.write_ports


class SimulationError(RuntimeError):
    """The simulation diverged from the golden trace or misbehaved."""


@dataclass
class UnitProfile:
    """Per-unit occupancy counters for one simulated program.

    The figures the paper's Table I justifies its datapath with:
    ``*_issues`` counts cycles a unit accepted a new operation,
    ``*_busy_cycles`` counts cycles the unit had *any* operation in
    flight (a depth-3 multiplier stays busy draining), forwarding uses
    count operands taken from a unit output instead of a register-file
    port, and the read/write totals give average port pressure.
    """

    cycles: int = 0
    mult_issues: int = 0
    addsub_issues: int = 0
    mult_busy_cycles: int = 0
    addsub_busy_cycles: int = 0
    forward_mult_uses: int = 0
    forward_addsub_uses: int = 0
    rf_reads: int = 0
    rf_writes: int = 0
    max_reads_per_cycle: int = 0
    max_writes_per_cycle: int = 0

    @property
    def mult_utilization(self) -> float:
        """Fraction of cycles the multiplier accepted a new issue."""
        return self.mult_issues / self.cycles if self.cycles else 0.0

    @property
    def addsub_utilization(self) -> float:
        return self.addsub_issues / self.cycles if self.cycles else 0.0

    @property
    def schedule_density(self) -> float:
        """Issue slots filled over slots available (both units).

        Directly comparable to the paper's Table I schedule density:
        each cycle offers one multiplier and one add-sub issue slot.
        """
        return (
            (self.mult_issues + self.addsub_issues) / (2 * self.cycles)
            if self.cycles
            else 0.0
        )

    def merge(self, other: "UnitProfile") -> None:
        """Accumulate another run's profile (sums; port maxes by max)."""
        self.cycles += other.cycles
        self.mult_issues += other.mult_issues
        self.addsub_issues += other.addsub_issues
        self.mult_busy_cycles += other.mult_busy_cycles
        self.addsub_busy_cycles += other.addsub_busy_cycles
        self.forward_mult_uses += other.forward_mult_uses
        self.forward_addsub_uses += other.forward_addsub_uses
        self.rf_reads += other.rf_reads
        self.rf_writes += other.rf_writes
        self.max_reads_per_cycle = max(
            self.max_reads_per_cycle, other.max_reads_per_cycle
        )
        self.max_writes_per_cycle = max(
            self.max_writes_per_cycle, other.max_writes_per_cycle
        )


@dataclass
class SimulationResult:
    outputs: Dict[str, Fp2Raw]
    cycles: int
    mult_stats: MultiplierStats
    addsub_stats: AddSubStats
    max_reads_per_cycle: int
    max_writes_per_cycle: int
    register_count: int
    profile: Optional[UnitProfile] = None


class DatapathSimulator:
    """Executes microprograms cycle by cycle.

    One fused loop runs the decoded ROM rows (:meth:`MicroProgram.decode`):
    the register file is a local list and each unit pipeline a local
    ring of ``depth`` slots, so every run starts from the power-on state
    and a batch engine can stream many programs through one instance.
    The arithmetic goes through the bit-exact unit models
    (:func:`karatsuba_fp2_multiply`, :func:`fp2_addsub_compute`), and
    every cycle is checked: each writeback against its golden value,
    the register file's port budget (4 deduplicated reads, 2 writes),
    reads of uninitialized registers, forwards or writebacks from an
    idle unit; at the end, drained pipelines and written outputs.
    """

    def __init__(self, mult_depth: int = 3, addsub_depth: int = 1):
        self.mult_depth = mult_depth
        self.addsub_depth = addsub_depth

    def run(self, program: MicroProgram, check_golden: bool = True) -> SimulationResult:
        rows = program.decode()
        golden = program.golden
        rf: List[Optional[Fp2Raw]] = [None] * program.register_count
        for reg, value in program.preload.items():
            rf[reg] = value
        m_depth = self.mult_depth
        s_depth = self.addsub_depth
        # Pipeline slot ``cycle % depth`` holds what was issued ``depth``
        # cycles ago: it leaves the unit this cycle and is refilled with
        # this cycle's issue.
        m_pipe: List[Optional[Fp2Raw]] = [None] * m_depth
        s_pipe: List[Optional[Fp2Raw]] = [None] * s_depth
        m_stats = MultiplierStats()
        s_stats = AddSubStats()
        multiply = karatsuba_fp2_multiply
        addsub = fp2_addsub_compute
        unary_kinds = (OpKind.NEG, OpKind.CONJ)

        fwd_m = fwd_s = 0
        reads = writes = max_reads = max_writes = 0
        m_issues = s_issues = m_busy = s_busy = m_inflight = s_inflight = 0

        for cycle, (wbs, m_issue, s_issue) in enumerate(rows):
            m_slot = cycle % m_depth
            s_slot = cycle % s_depth
            # Values leaving the units this cycle (available for
            # forwarding and for writeback).
            m_out = m_pipe[m_slot]
            s_out = s_pipe[s_slot]

            # Writebacks come from the unit outputs and land at the end
            # of the cycle, after this cycle's reads.
            n_writes = 0
            for reg, is_mult, uid in wbs:
                value = m_out if is_mult else s_out
                if value is None:
                    raise SimulationError(
                        f"cycle {cycle}: writeback from idle "
                        f"{'mult' if is_mult else 'addsub'} unit"
                    )
                if check_golden and value != golden[uid]:
                    raise SimulationError(
                        f"cycle {cycle}: v{uid} mismatch: {value} != {golden[uid]}"
                    )
                n_writes += 1
                if n_writes > WRITE_PORTS:
                    raise PortViolation(f"more than {WRITE_PORTS} writes in a cycle")

            # Operand gathering: a register read once per issue feeds
            # every slot naming it (a squaring fans one read port out to
            # both multiplier inputs).
            n_reads = 0
            m_new = s_new = None
            for is_mult, issue in ((True, m_issue), (False, s_issue)):
                if issue is None:
                    continue
                kind, codes, _ = issue
                args = []
                seen = []  # codes in operand order, aligned with args
                for code in codes:
                    if code >= 0:
                        if code in seen:
                            args.append(args[seen.index(code)])
                            seen.append(code)
                            continue
                        n_reads += 1
                        if n_reads > READ_PORTS:
                            raise PortViolation(
                                f"more than {READ_PORTS} reads in a cycle"
                            )
                        value = rf[code]
                        if value is None:
                            raise RuntimeError(
                                f"read of uninitialized register r{code}"
                            )
                    elif code == FWD_MULT:
                        if m_out is None:
                            raise SimulationError(
                                f"cycle {cycle}: forward from idle multiplier"
                            )
                        fwd_m += 1
                        value = m_out
                    else:
                        if s_out is None:
                            raise SimulationError(
                                f"cycle {cycle}: forward from idle addsub"
                            )
                        fwd_s += 1
                        value = s_out
                    seen.append(code)
                    args.append(value)
                if is_mult:
                    x, y = args
                    m_new = multiply(x, y, m_stats)
                elif kind in unary_kinds:
                    s_new = addsub(kind, args[0], None)
                else:
                    s_new = addsub(kind, args[0], args[1])
            reads += n_reads
            if n_reads > max_reads:
                max_reads = n_reads

            # Occupancy: a unit is busy any cycle with an op in flight
            # (issuing, or draining its pipeline).
            if m_issue is not None:
                m_issues += 1
                m_busy += 1
                m_inflight += 1
            elif m_inflight:
                m_busy += 1
            if m_out is not None:
                m_inflight -= 1
            if s_issue is not None:
                s_issues += 1
                s_busy += 1
                s_inflight += 1
            elif s_inflight:
                s_busy += 1
            if s_out is not None:
                s_inflight -= 1

            m_pipe[m_slot] = m_new
            s_pipe[s_slot] = s_new
            if wbs:
                for reg, is_mult, _ in wbs:
                    rf[reg] = m_out if is_mult else s_out
                writes += n_writes
                if n_writes > max_writes:
                    max_writes = n_writes

        if any(v is not None for v in m_pipe) or any(v is not None for v in s_pipe):
            raise SimulationError("pipeline not drained at end of program")

        outputs = {}
        for name, reg in program.outputs.items():
            value = rf[reg]
            if value is None:
                raise SimulationError(f"output {name} (r{reg}) never written")
            outputs[name] = value
        s_stats.issues = s_issues
        profile = UnitProfile(
            cycles=len(rows),
            mult_issues=m_issues,
            addsub_issues=s_issues,
            mult_busy_cycles=m_busy,
            addsub_busy_cycles=s_busy,
            forward_mult_uses=fwd_m,
            forward_addsub_uses=fwd_s,
            rf_reads=reads,
            rf_writes=writes,
            max_reads_per_cycle=max_reads,
            max_writes_per_cycle=max_writes,
        )
        return SimulationResult(
            outputs=outputs,
            cycles=len(rows),
            mult_stats=m_stats,
            addsub_stats=s_stats,
            max_reads_per_cycle=max_reads,
            max_writes_per_cycle=max_writes,
            register_count=program.register_count,
            profile=profile,
        )
