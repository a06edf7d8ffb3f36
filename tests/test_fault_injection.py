"""Fault-injection tests: the verification layers must catch corruption.

A verification flow is only as good as its ability to *fail*.  These
tests mutate schedules, microcode, and simulated state, and assert that
the validator / golden-checking simulator detects every class of fault.
"""

import copy
import random

import pytest

from repro.flow import run_flow
from repro.isa import (
    ControlWord,
    Operand,
    OperandSource,
    UnitIssue,
    Writeback,
    assemble,
)
from repro.rtl import DatapathSimulator, PortViolation, SimulationError
from repro.sched import ScheduleError, cp_schedule, problem_from_trace
from repro.sched.schedule import Schedule
from repro.serve.cache import FlowArtifactCache
from repro.trace import OpKind, trace_loop_iteration
from repro.trace.ops import Unit


@pytest.fixture(scope="module")
def kernel_flow():
    return run_flow(trace_loop_iteration())


@pytest.fixture(scope="module")
def kernel_parts():
    prog = trace_loop_iteration()
    prob = problem_from_trace(prog.tracer.trace)
    sched = cp_schedule(prob).schedule
    return prog, prob, sched


class TestScheduleMutations:
    def test_shift_one_task_earlier_detected(self, kernel_parts):
        """Issuing any dependent task one cycle early must be caught."""
        prog, prob, sched = kernel_parts
        caught = 0
        for idx, t in enumerate(prob.tasks):
            if not t.deps:
                continue
            mutated = Schedule(
                problem=prob,
                start=[s - 1 if i == idx else s for i, s in enumerate(sched.start)],
            )
            if not mutated.is_valid():
                caught += 1
        assert caught >= len([t for t in prob.tasks if t.deps]) // 2

    def test_colliding_issue_detected(self, kernel_parts):
        prog, prob, sched = kernel_parts
        # Move the second multiplier task onto the first one's cycle.
        from repro.trace.ops import Unit

        mult_tasks = [t.index for t in prob.tasks if t.unit is Unit.MULTIPLIER]
        a, b = mult_tasks[0], mult_tasks[1]
        start = list(sched.start)
        start[b] = start[a]
        assert not Schedule(problem=prob, start=start).is_valid()

    def test_truncated_schedule_detected(self, kernel_parts):
        prog, prob, sched = kernel_parts
        with pytest.raises(ScheduleError):
            Schedule(problem=prob, start=sched.start[:-1]).validate()


class TestMicrocodeMutations:
    def _fresh_program(self):
        prog = trace_loop_iteration()
        prob = problem_from_trace(prog.tracer.trace)
        sched = cp_schedule(prob).schedule
        return assemble(prob, sched, prog.tracer.trace, prog.tracer.outputs)

    def test_swapped_writeback_register_detected(self):
        """Writing a result to the wrong register corrupts a later read;
        the golden check (or an output mismatch) must fire."""
        mp = self._fresh_program()
        sim = DatapathSimulator()
        baseline = sim.run(copy.deepcopy(mp))

        # Find a cycle with a writeback and redirect it.
        for w in mp.words:
            if w.writebacks:
                wb = w.writebacks[0]
                victim = (wb.register + 1) % mp.register_count
                from repro.isa import Writeback

                w.writebacks = (
                    Writeback(register=victim, unit=wb.unit, uid=wb.uid),
                ) + w.writebacks[1:]
                break
        try:
            result = DatapathSimulator().run(mp)
            # If it survived, at least one output must differ.
            assert result.outputs != baseline.outputs
        except (SimulationError, RuntimeError):
            pass  # detected

    def test_wrong_operand_register_detected(self):
        mp = self._fresh_program()
        from repro.isa import Operand, OperandSource, UnitIssue

        mutated = False
        for w in mp.words:
            if w.mult and all(
                op.source is OperandSource.REGISTER for op in w.mult.operands
            ):
                ops = list(w.mult.operands)
                ops[0] = Operand(
                    source=OperandSource.REGISTER,
                    register=(ops[0].register + 1) % mp.register_count,
                )
                w.mult = UnitIssue(
                    kind=w.mult.kind,
                    operands=tuple(ops),
                    dest_uid=w.mult.dest_uid,
                )
                mutated = True
                break
        assert mutated
        with pytest.raises((SimulationError, RuntimeError)):
            DatapathSimulator().run(mp)

    def test_dropped_issue_detected(self):
        """Deleting one multiplier issue starves a later writeback."""
        mp = self._fresh_program()
        for w in mp.words:
            if w.mult:
                w.mult = None
                break
        with pytest.raises((SimulationError, RuntimeError)):
            DatapathSimulator().run(mp)

    def test_corrupted_preload_detected(self, kernel_flow):
        mp = copy.deepcopy(kernel_flow.microprogram)
        reg, val = next(iter(mp.preload.items()))
        mp.preload[reg] = (val[0] ^ 1, val[1])
        with pytest.raises((SimulationError, RuntimeError)):
            DatapathSimulator().run(mp)


class TestArithmeticFaults:
    def test_multiplier_width_assertions(self):
        """Out-of-range operands violate the declared hardware widths."""
        from repro.rtl import karatsuba_fp2_multiply

        with pytest.raises(AssertionError):
            karatsuba_fp2_multiply((1 << 127, 0), (1, 0))

    def test_simulator_rejects_forward_from_idle_unit(self, kernel_flow):
        mp = copy.deepcopy(kernel_flow.microprogram)
        from repro.isa import Operand, OperandSource, UnitIssue
        from repro.trace import OpKind

        # Inject a forwarding operand in cycle 0 (nothing is in flight).
        w0 = mp.words[0]
        issue = UnitIssue(
            kind=OpKind.ADD,
            operands=(
                Operand(source=OperandSource.FORWARD_MULT),
                Operand(source=OperandSource.FORWARD_MULT),
            ),
            dest_uid=-1,
        )
        if w0.addsub is None:
            w0.addsub = issue
        else:
            w0.mult = UnitIssue(
                kind=OpKind.MUL, operands=issue.operands, dest_uid=-1
            )
        with pytest.raises(SimulationError):
            DatapathSimulator().run(mp)


class TestSimulatorChecks:
    """Each per-cycle and end-of-run check fires on its own fault."""

    def _program(self):
        prog = trace_loop_iteration()
        prob = problem_from_trace(prog.tracer.trace)
        sched = cp_schedule(prob).schedule
        return assemble(prob, sched, prog.tracer.trace, prog.tracer.outputs)

    def test_three_writebacks_in_one_cycle(self):
        mp = self._program()
        w = next(w for w in mp.words if w.writebacks)
        wb = w.writebacks[0]
        w.writebacks = (wb, wb, wb)
        with pytest.raises(PortViolation):
            DatapathSimulator().run(mp)

    def test_writeback_from_idle_unit(self):
        mp = self._program()
        assert not mp.words[0].writebacks
        mp.words[0].writebacks = (
            Writeback(register=0, unit=Unit.MULTIPLIER, uid=-1),
        )
        with pytest.raises(SimulationError, match="writeback from idle mult"):
            DatapathSimulator().run(mp)

    def _reads_at_cycle_0(self, mult_regs, addsub_regs):
        """Replace cycle 0's issues with reads of the given registers."""
        mp = self._program()

        def operands(regs):
            return tuple(
                Operand(source=OperandSource.REGISTER, register=r) for r in regs
            )

        mp.words[0].mult = UnitIssue(
            kind=OpKind.MUL, operands=operands(mult_regs), dest_uid=-1
        )
        mp.words[0].addsub = UnitIssue(
            kind=OpKind.ADD, operands=operands(addsub_regs), dest_uid=-1
        )
        return mp

    def test_five_reads_in_one_cycle(self):
        r = sorted(self._program().preload)[:5]
        mp = self._reads_at_cycle_0(r[:2], r[2:5])
        with pytest.raises(PortViolation):
            DatapathSimulator().run(mp, check_golden=False)

    def test_repeated_register_is_read_once_per_issue(self):
        r = sorted(self._program().preload)[:4]
        mp = self._reads_at_cycle_0([r[0], r[0]], r[1:4])
        result = DatapathSimulator().run(mp, check_golden=False)
        assert result.max_reads_per_cycle == 4

    def test_read_of_uninitialized_register(self):
        mp = self._program()
        mp.register_count += 1
        w = next(w for w in mp.words if w.mult)
        w.mult = UnitIssue(
            kind=w.mult.kind,
            operands=(
                Operand(source=OperandSource.REGISTER, register=mp.register_count - 1),
            )
            + w.mult.operands[1:],
            dest_uid=w.mult.dest_uid,
        )
        with pytest.raises(RuntimeError, match="uninitialized register"):
            DatapathSimulator().run(mp)

    def test_output_register_never_written(self):
        mp = self._program()
        mp.register_count += 1
        mp.outputs["never"] = mp.register_count - 1
        with pytest.raises(SimulationError, match="never written"):
            DatapathSimulator().run(mp)

    def test_pipeline_not_drained(self):
        mp = self._program()
        reg = next(iter(mp.preload))
        mp.words.append(
            ControlWord(
                cycle=len(mp.words),
                mult=UnitIssue(
                    kind=OpKind.MUL,
                    operands=(
                        Operand(source=OperandSource.REGISTER, register=reg),
                    )
                    * 2,
                    dest_uid=-1,
                ),
            )
        )
        with pytest.raises(SimulationError, match="not drained"):
            DatapathSimulator().run(mp)


class TestCacheHitMutations:
    """The mutation classes above, applied to a rebound (cache-hit)
    program: its rows run until ``words`` is read, then the words do."""

    def _hit_program(self):
        cache = FlowArtifactCache()
        run_flow(trace_loop_iteration(random.Random(1)), cache=cache)
        hit = run_flow(trace_loop_iteration(random.Random(2)), cache=cache)
        assert hit.cache_hit
        return hit.microprogram

    def test_hit_program_runs_clean(self):
        mp = self._hit_program()
        DatapathSimulator().run(mp)
        mp.words  # materialize: the words now are the program
        DatapathSimulator().run(mp)

    def test_corrupted_golden_detected(self):
        mp = self._hit_program()
        # Every arithmetic op writes back, so its golden value is checked.
        trace = trace_loop_iteration(random.Random(2)).tracer.trace
        uid = next(op.uid for op in trace if op.is_arithmetic)
        value = mp.golden[uid]
        mp.golden[uid] = (value[0] ^ 1, value[1])
        with pytest.raises(SimulationError, match="mismatch"):
            DatapathSimulator().run(mp)

    def test_corrupted_preload_detected(self):
        mp = self._hit_program()
        reg, val = next(iter(mp.preload.items()))
        mp.preload[reg] = (val[0] ^ 1, val[1])
        with pytest.raises((SimulationError, RuntimeError)):
            DatapathSimulator().run(mp)

    def test_wrong_operand_register_in_materialized_words(self):
        mp = self._hit_program()
        w = next(
            w
            for w in mp.words
            if w.mult
            and all(op.source is OperandSource.REGISTER for op in w.mult.operands)
        )
        ops = list(w.mult.operands)
        ops[0] = Operand(
            source=OperandSource.REGISTER,
            register=(ops[0].register + 1) % mp.register_count,
        )
        w.mult = UnitIssue(kind=w.mult.kind, operands=tuple(ops), dest_uid=w.mult.dest_uid)
        with pytest.raises((SimulationError, RuntimeError)):
            DatapathSimulator().run(mp)

    def test_dropped_issue_in_materialized_words(self):
        mp = self._hit_program()
        next(w for w in mp.words if w.mult).mult = None
        with pytest.raises((SimulationError, RuntimeError)):
            DatapathSimulator().run(mp)
