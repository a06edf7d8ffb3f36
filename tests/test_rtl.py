"""Tests for the bit-exact RTL models: multiplier, addsub, register file."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.field.fp import P127
from repro.field.fp2 import fp2_add, fp2_conj, fp2_mul, fp2_neg, fp2_sub
from repro.rtl import (
    AddSubUnit,
    PipelinedMultiplier,
    PortViolation,
    RegisterFile,
    fp2_addsub_compute,
    karatsuba_fp2_multiply,
)
from repro.rtl.multiplier import MultiplierStats
from repro.trace.ops import OpKind

coord = st.integers(min_value=0, max_value=P127 - 1)
elements = st.tuples(coord, coord)


class TestMultiplierCombinational:
    """Algorithm 2 must agree with the mathematical F_{p^2} product."""

    @given(elements, elements)
    def test_matches_math(self, x, y):
        assert karatsuba_fp2_multiply(x, y) == fp2_mul(x, y)

    def test_edge_values(self):
        p1 = P127 - 1
        for x in [(0, 0), (1, 0), (0, 1), (p1, p1), (p1, 0), (0, p1)]:
            for y in [(0, 0), (1, 0), (0, 1), (p1, p1)]:
                assert karatsuba_fp2_multiply(x, y) == fp2_mul(x, y)

    def test_stats_recorded(self):
        stats = MultiplierStats()
        karatsuba_fp2_multiply((123, 456), (789, 321), stats)
        assert stats.issues == 1
        assert stats.cond_subs == 2
        assert stats.folds <= 6  # at most ~2 folds per half


class TestMultiplierPipeline:
    def test_latency_and_ii(self):
        m = PipelinedMultiplier(depth=3)
        pairs = [((i + 1, 0), (i + 1, 0)) for i in range(5)]
        outs = []
        for i in range(8):
            issue = pairs[i] if i < 5 else None
            outs.append(m.tick(issue))
        # Results appear exactly depth cycles after issue, II = 1.
        assert outs[:3] == [None, None, None]
        assert outs[3:] == [fp2_mul(p[0], p[1]) for p in pairs]
        assert not m.busy

    def test_bubble(self):
        m = PipelinedMultiplier(depth=2)
        m.tick(((2, 0), (3, 0)))
        m.tick(None)
        assert m.tick(None) == (6, 0)
        assert m.tick(None) is None


class TestAddSub:
    @given(elements, elements)
    def test_add_sub_match_math(self, a, b):
        assert fp2_addsub_compute(OpKind.ADD, a, b) == fp2_add(a, b)
        assert fp2_addsub_compute(OpKind.SUB, a, b) == fp2_sub(a, b)

    @given(elements)
    def test_neg_conj(self, a):
        assert fp2_addsub_compute(OpKind.NEG, a, None) == fp2_neg(a)
        assert fp2_addsub_compute(OpKind.CONJ, a, None) == fp2_conj(a)

    def test_rejects_mul(self):
        with pytest.raises(ValueError):
            fp2_addsub_compute(OpKind.MUL, (1, 0), (1, 0))

    def test_unit_latency(self):
        u = AddSubUnit(depth=1)
        assert u.tick((OpKind.ADD, (1, 0), (2, 0))) is None
        assert u.tick(None) == (3, 0)


class TestRegisterFile:
    def test_preload_read(self):
        rf = RegisterFile(size=4)
        rf.preload({0: (7, 0), 2: (9, 9)})
        rf.begin_cycle()
        assert rf.read(0) == (7, 0)
        assert rf.read(2) == (9, 9)

    def test_read_port_limit(self):
        rf = RegisterFile(size=8, read_ports=2)
        rf.preload({i: (i, 0) for i in range(8)})
        rf.begin_cycle()
        rf.read(0)
        rf.read(1)
        with pytest.raises(PortViolation):
            rf.read(2)

    def test_write_port_limit(self):
        rf = RegisterFile(size=8, write_ports=2)
        rf.begin_cycle()
        rf.write(0, (1, 0))
        rf.write(1, (2, 0))
        with pytest.raises(PortViolation):
            rf.write(2, (3, 0))

    def test_write_lands_at_end_of_cycle(self):
        rf = RegisterFile(size=2)
        rf.preload({0: (5, 0)})
        rf.begin_cycle()
        rf.write(0, (6, 0))
        assert rf.read(0) == (5, 0)  # read-before-write semantics
        rf.end_cycle()
        rf.begin_cycle()
        assert rf.read(0) == (6, 0)

    def test_uninitialized_read_fails(self):
        rf = RegisterFile(size=2)
        rf.begin_cycle()
        with pytest.raises(RuntimeError):
            rf.read(1)


class TestSimulatorReuse:
    """reset() regression: a reused simulator must equal fresh ones.

    The batch engine streams every request through one
    DatapathSimulator instance; any state leaking across run() calls
    (register contents, pipeline slots, port-usage high-water marks)
    would corrupt the second request or its statistics.
    """

    def _programs(self):
        import random

        from repro.flow import run_flow
        from repro.trace import trace_loop_iteration

        flows = [
            run_flow(trace_loop_iteration(random.Random(seed)))
            for seed in (0xAB, 0xCD)
        ]
        return [(f.microprogram, f.simulation) for f in flows]

    def test_back_to_back_runs_match_fresh_simulators(self):
        from repro.rtl.datapath import DatapathSimulator

        programs = self._programs()
        shared = DatapathSimulator()
        for microprogram, fresh in programs:
            sim = shared.run(microprogram, check_golden=True)
            assert sim.outputs == fresh.outputs
            assert sim.cycles == fresh.cycles
            assert sim.register_count == fresh.register_count
            assert sim.max_reads_per_cycle == fresh.max_reads_per_cycle
            assert sim.max_writes_per_cycle == fresh.max_writes_per_cycle
            assert sim.mult_stats == fresh.mult_stats
            assert sim.addsub_stats == fresh.addsub_stats

    def test_same_program_twice_is_deterministic(self):
        from repro.rtl.datapath import DatapathSimulator

        (microprogram, fresh), _ = self._programs()
        shared = DatapathSimulator()
        first = shared.run(microprogram, check_golden=True)
        second = shared.run(microprogram, check_golden=True)
        assert first.outputs == second.outputs == fresh.outputs
        assert first.cycles == second.cycles == fresh.cycles


def _run_unit_models(program, mult_depth=3, addsub_depth=1):
    """Run a program's ``words`` on the unit models, cycle by cycle.

    The reference for :meth:`DatapathSimulator.run`'s fused loop: a
    :class:`RegisterFile` (reads see the start-of-cycle state, writes
    land at the end), a :class:`PipelinedMultiplier` and an
    :class:`AddSubUnit`, each advanced one :meth:`tick` per cycle.
    Returns the (multiplier, addsub) output of every cycle plus the
    three models.
    """
    from repro.isa import OperandSource
    from repro.trace.ops import Unit

    rf = RegisterFile(size=program.register_count)
    rf.preload(program.preload)
    mult = PipelinedMultiplier(depth=mult_depth)
    addsub = AddSubUnit(depth=addsub_depth)
    outputs = []
    for word in program.words:
        rf.begin_cycle()
        m_out, s_out = mult.output, addsub.output
        for wb in word.writebacks:
            rf.write(wb.register, m_out if wb.unit is Unit.MULTIPLIER else s_out)

        def gather(issue):
            read = {}  # one register read per issue feeds every slot
            args = []
            for op in issue.operands:
                if op.source is OperandSource.REGISTER:
                    if op.register not in read:
                        read[op.register] = rf.read(op.register)
                    args.append(read[op.register])
                else:
                    value = m_out if op.source is OperandSource.FORWARD_MULT else s_out
                    assert value is not None
                    args.append(value)
            return args

        m_issue = tuple(gather(word.mult)) if word.mult else None
        s_issue = None
        if word.addsub:
            args = gather(word.addsub)
            s_issue = (word.addsub.kind, args[0], args[1] if len(args) > 1 else None)
        assert mult.tick(m_issue) == m_out
        assert addsub.tick(s_issue) == s_out
        rf.end_cycle()
        outputs.append((m_out, s_out))
    assert not mult.busy and not addsub.busy
    return outputs, rf, mult, addsub


class TestFusedLoopMatchesUnitModels:
    """The fused simulator loop and the unit models are one cycle model."""

    @pytest.fixture(scope="class")
    def sm_program(self):
        from repro.flow import run_flow
        from repro.trace import trace_scalar_mult

        flow = run_flow(trace_scalar_mult(k=0x5EED_F00D << 100, self_check=False))
        return flow.microprogram, flow.simulation

    def test_full_sm_cycle_by_cycle(self, sm_program):
        import copy

        from repro.rtl.datapath import DatapathSimulator, SimulationError
        from repro.trace.ops import Unit

        program, sim = sm_program
        outputs, rf, mult, addsub = _run_unit_models(program)
        assert len(outputs) == sim.cycles == 2069

        # Every value leaving a unit is written back, so checking the
        # fused loop's writebacks against the unit models' outputs
        # (as its golden vector) compares the units' outputs per cycle.
        reference = [None] * len(program.golden)
        for word, (m_out, s_out) in zip(program.words, outputs):
            units = {wb.unit for wb in word.writebacks}
            assert (m_out is not None) == (Unit.MULTIPLIER in units)
            assert (s_out is not None) == (Unit.ADDSUB in units)
            for wb in word.writebacks:
                reference[wb.uid] = m_out if wb.unit is Unit.MULTIPLIER else s_out
        checked = copy.copy(program)
        checked.golden = reference
        fused = DatapathSimulator().run(checked)

        assert fused.mult_stats == mult.stats == sim.mult_stats
        assert fused.addsub_stats == addsub.stats == sim.addsub_stats
        assert fused.max_reads_per_cycle == rf.max_reads_seen
        assert fused.max_writes_per_cycle == rf.max_writes_seen
        assert fused.profile.rf_reads == rf.total_reads
        assert fused.profile.rf_writes == rf.total_writes
        assert fused.outputs == {
            name: rf.peek(reg) for name, reg in program.outputs.items()
        }

        # The comparison is live: one wrong unit output is caught.
        uid = next(u for u, v in enumerate(reference) if v is not None)
        reference[uid] = (reference[uid][0] ^ 1, reference[uid][1])
        with pytest.raises(SimulationError):
            DatapathSimulator().run(checked)
