"""Integration tests: the complete design flow, trace to verified cycles.

These are the repository's strongest end-to-end guarantees: the
scheduled, register-allocated microprogram executed on the
cycle-accurate datapath must reproduce — bit for bit — what the
mathematical layer computes, including the full [k]P result.
"""

import pytest

from repro.curve.point import AffinePoint
from repro.flow import run_flow
from repro.rtl import DatapathSimulator, SimulationError
from repro.sched import MachineSpec
from repro.trace import trace_loop_iteration, trace_scalar_mult


class TestKernelFlow:
    @pytest.fixture(scope="class")
    def flow(self):
        return run_flow(trace_loop_iteration())

    def test_kernel_schedule_is_paper_25_cycles(self, flow):
        """Optimal kernel schedule: 24 issue cycles + writeback = 25
        ROM words, matching the cycle count of the paper's Table I."""
        assert flow.schedule.makespan == 24
        assert flow.microprogram.cycles == 25

    def test_kernel_simulation_matches_expected_point(self, flow):
        from repro.field.fp2 import fp2_inv, fp2_mul

        out = flow.simulation.outputs
        zinv = fp2_inv(out["Qz'"])
        x = fp2_mul(out["Qx'"], zinv)
        y = fp2_mul(out["Qy'"], zinv)
        assert AffinePoint(x, y) == flow.trace_program.expected

    def test_kernel_register_count_small(self, flow):
        assert flow.microprogram.register_count <= 16

    def test_port_limits_respected_in_simulation(self, flow):
        assert flow.simulation.max_reads_per_cycle <= 4
        assert flow.simulation.max_writes_per_cycle <= 2

    def test_fsm_geometry(self, flow):
        assert flow.fsm.states == flow.microprogram.cycles + 2
        assert flow.fsm.word_bits > 20
        assert len(flow.fsm.rom) == flow.microprogram.cycles


class TestFullProgramFlow:
    @pytest.fixture(scope="class")
    def flow(self):
        prog = trace_scalar_mult(k=0xC0FFEE << 200)
        return run_flow(prog)

    def test_rtl_computes_kP(self, flow):
        """The headline integration check: simulated chip output = [k]P."""
        out = flow.simulation.outputs
        exp = flow.trace_program.expected
        assert out["result_x"] == exp.x
        assert out["result_y"] == exp.y

    def test_cycle_count_plausible(self, flow):
        """~2000 cycles: consistent with 10.1 us at the fmax the
        technology model derives for 1.2 V."""
        assert 1500 <= flow.cycles <= 2600

    def test_schedule_close_to_lower_bound(self, flow):
        lb = flow.problem.lower_bound()
        assert flow.schedule.makespan <= 1.35 * lb

    def test_golden_checking_catches_corruption(self, flow):
        """Corrupt one golden value: the simulator must detect it."""
        prog = flow.microprogram
        victim_uid = next(u for u, v in enumerate(prog.golden) if v != (0, 0))
        original = prog.golden[victim_uid]
        prog.golden[victim_uid] = (original[0] ^ 1, original[1])
        sim = DatapathSimulator()
        is_computed = any(
            wb.uid == victim_uid for w in prog.words for wb in w.writebacks
        )
        try:
            if is_computed:
                with pytest.raises(SimulationError):
                    sim.run(prog)
        finally:
            prog.golden[victim_uid] = original

    def test_different_scalars_same_cycle_count(self):
        """Constant-time property: cycle count independent of k."""
        a = run_flow(trace_scalar_mult(k=1))
        b = run_flow(trace_scalar_mult(k=2**255 - 19))
        assert a.cycles == b.cycles


class TestFlowVariants:
    def test_no_forwarding_machine(self):
        flow = run_flow(
            trace_loop_iteration(), machine=MachineSpec(forwarding=False)
        )
        assert flow.schedule.makespan >= 24  # strictly harder

    def test_explicit_list_scheduler(self):
        flow = run_flow(trace_loop_iteration(), scheduler="list")
        assert flow.simulation.cycles >= 24

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError):
            run_flow(trace_loop_iteration(), scheduler="quantum")

    def test_report_renders(self):
        flow = run_flow(trace_loop_iteration())
        text = flow.report()
        assert "micro-ops" in text and "simulated cycles" in text
