"""Tests for the execution-trace recorder and traced programs."""

import pytest

from repro.trace import OpKind, Tracer, trace_loop_iteration, trace_msm_window, trace_scalar_mult


class TestTracer:
    def test_basic_recording(self):
        tr = Tracer()
        a = tr.input((3, 0), "a")
        b = tr.input((4, 0), "b")
        c = tr.mul(a, b)
        d = tr.add(c, a)
        assert tr.values[c] == (12, 0)
        assert tr.values[d] == (15, 0)
        assert [op.kind for op in tr.trace] == [
            OpKind.INPUT,
            OpKind.INPUT,
            OpKind.MUL,
            OpKind.ADD,
        ]
        assert tr.trace[2].srcs == (0, 1)
        assert tr.trace[3].srcs == (2, 0)

    def test_all_op_kinds(self):
        tr = Tracer()
        a = tr.input((5, 7), "a")
        assert tr.values[tr.sqr(a)] == ((5 * 5 - 7 * 7) % (2**127 - 1), 70)
        assert tr.values[tr.neg(a)] == ((2**127 - 1) - 5, (2**127 - 1) - 7)
        assert tr.values[tr.conj(a)] == (5, (2**127 - 1) - 7)
        assert tr.values[tr.sub(a, a)] == (0, 0)

    def test_const_dedup(self):
        tr = Tracer()
        c1 = tr.const((9, 9), "nine")
        c2 = tr.const((9, 9), "nine-again")
        assert c1 == c2
        assert len(tr.trace) == 1

    def test_sections(self):
        tr = Tracer()
        a = tr.input((1, 0), "a")
        tr.begin_section("work")
        tr.add(a, a)
        tr.mul(a, a)
        tr.end_section()
        assert tr.sections == [("work", 1, 3)]

    def test_counters(self):
        tr = Tracer()
        a = tr.input((2, 0), "a")
        tr.mul(a, a)
        tr.sqr(a)
        tr.add(a, a)
        assert tr.multiplier_ops() == 2
        assert tr.addsub_ops() == 1
        assert tr.arithmetic_size() == 3
        assert tr.multiplication_share() == pytest.approx(2 / 3)

    def test_outputs(self):
        tr = Tracer()
        a = tr.input((2, 0), "a")
        b = tr.mul(a, a)
        tr.mark_output(b, "result")
        assert tr.outputs == [b]
        assert tr.trace[b].name == "result"


class TestLoopIterationTrace:
    """Fig. 2(b): the kernel is exactly 15 muls and 13 add/subs."""

    def test_op_counts(self):
        prog = trace_loop_iteration()
        assert prog.tracer.multiplier_ops() == 15
        assert prog.tracer.addsub_ops() == 13

    def test_trace_self_checks(self):
        prog = trace_loop_iteration()
        # The last outputs decode to 2Q - P (negate=True path).
        assert prog.expected is not None

    def test_sections_present(self):
        prog = trace_loop_iteration()
        names = [s[0] for s in prog.tracer.sections]
        assert names == ["double", "select", "add"]

    def test_negate_false_variant_same_op_counts(self):
        """Constant-time claim: op counts identical for both signs."""
        a = trace_loop_iteration(negate=True)
        b = trace_loop_iteration(negate=False)
        assert a.tracer.multiplier_ops() == b.tracer.multiplier_ops()
        assert a.tracer.addsub_ops() == b.tracer.addsub_ops()


class TestFullTrace:
    @pytest.fixture(scope="class")
    def prog(self):
        return trace_scalar_mult(k=0xFEDCBA9876543210 << 190)

    def test_size_is_thousands(self, prog):
        """Paper: 'thousands of microinstructions'."""
        assert 2000 <= prog.arithmetic_size <= 3000

    def test_multiplication_share_near_57_percent(self, prog):
        """Paper Section III-B: F_{p^2} muls are ~57% of arithmetic ops."""
        share = prog.tracer.multiplication_share()
        assert 0.54 <= share <= 0.61

    def test_traced_result_matches_reference(self, prog):
        # trace_scalar_mult raises internally on divergence; make the
        # golden values of the outputs explicit here.
        x_uid, y_uid = prog.tracer.outputs
        assert prog.tracer.trace[x_uid].value == prog.expected.x
        assert prog.tracer.trace[y_uid].value == prog.expected.y

    def test_sections_cover_pipeline(self, prog):
        names = {s[0] for s in prog.tracer.sections}
        assert names == {"endo", "table", "loop", "normalize"}

    def test_loop_section_dominates(self, prog):
        counts = prog.section_counts()
        loop_m, loop_a = counts["loop"]
        assert loop_m == 64 * 15  # 64 iterations x 15 muls
        assert loop_a == 64 * 13 + 2  # + seed conversion (2 add/sub)

    def test_without_endomorphisms(self):
        prog = trace_scalar_mult(k=12345, include_endomorphisms=False)
        names = {s[0] for s in prog.tracer.sections}
        assert "endo" not in names
        x_uid, y_uid = prog.tracer.outputs
        assert prog.tracer.trace[x_uid].value == prog.expected.x


class TestMsmWindowTrace:
    """The fixed-shape Pippenger bucket-window kernel."""

    def test_shape_is_input_independent(self):
        # The digits are fixed by construction, so any two traces of
        # the same (n_points, window) must agree op-for-op — that is
        # what lets the flow-artifact cache serve every MSM request.
        import random

        a = trace_msm_window(n_points=4, window=3, rng=random.Random(1))
        b = trace_msm_window(n_points=4, window=3, rng=random.Random(2))
        assert [op.kind for op in a.tracer.trace] == [
            op.kind for op in b.tracer.trace
        ]
        assert [op.srcs for op in a.tracer.trace] == [
            op.srcs for op in b.tracer.trace
        ]

    def test_sections_cover_bucket_pipeline(self):
        prog = trace_msm_window(n_points=4, window=3)
        names = {s[0] for s in prog.tracer.sections}
        assert names == {"double", "bucket", "aggregate"}

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            trace_msm_window(n_points=0)
        with pytest.raises(ValueError):
            trace_msm_window(n_points=4, window=1)


#: sha256 over ``uid|kind|srcs|value|name`` of every op of the default
#: recording of each workload, and its op count: recorded from the
#: object-per-op tracer, so the column recorder's materialized ``trace``
#: must reproduce them op for op.
PINNED_TRACES = {
    "loop_iteration": (
        40, "550980fbd5376f0df43099e3e1b77f5388468fda1e1388d49ee291015f1e185b"
    ),
    "scalar_mult": (
        2804, "4f674d2c11a399c79c30be0be9d88e43bcfb830cb24f068b75c3513de557e2e4"
    ),
    "double_scalar_mult": (
        4625, "0c33851a7f5ffe9ddf9e5a50ecc12459bc946d3ac4193a73dca868406a9c939e"
    ),
    "msm_window": (
        415, "b8794e47dff91ce05fd977d8aac7c1d246396a533fdda00be1d86128215b0994"
    ),
}


class TestColumnRecording:
    @pytest.mark.parametrize("workload", sorted(PINNED_TRACES))
    def test_materialized_trace_is_unchanged(self, workload):
        import hashlib

        from repro.trace import trace_double_scalar_mult

        make = {
            "loop_iteration": trace_loop_iteration,
            "scalar_mult": trace_scalar_mult,
            "double_scalar_mult": trace_double_scalar_mult,
            "msm_window": trace_msm_window,
        }[workload]
        tracer = make().tracer
        trace = tracer.trace
        digest = hashlib.sha256(
            "\n".join(
                f"{op.uid}|{op.kind.value}|{op.srcs}|{op.value}|{op.name}"
                for op in trace
            ).encode()
        ).hexdigest()
        assert (len(trace), digest) == PINNED_TRACES[workload]
        assert [op.kind for op in trace] == tracer.kinds
        assert [op.srcs for op in trace] == tracer.srcs
        assert [op.value for op in trace] == tracer.values

    def test_view_follows_the_recording(self):
        tr = Tracer()
        a = tr.input((2, 0), "a")
        b = tr.mul(a, a)
        assert [op.uid for op in tr.trace] == [a, b]
        c = tr.add(b, a)  # recorded after the view was built
        tr.mark_output(b, "out")  # names an op already in the view
        assert [op.uid for op in tr.trace] == [a, b, c]
        assert tr.trace[b].name == "out"
        assert tr.trace[c].value == tr.values[c] == (6, 0)

    def test_copies_record_into_their_own_columns(self):
        import copy
        import pickle

        tr = Tracer()
        a = tr.input((3, 0), "a")
        for clone in (copy.deepcopy(tr), pickle.loads(pickle.dumps(tr))):
            b = clone.mul(a, a)
            assert clone.values[b] == (9, 0)
            assert len(clone.kinds) == len(clone.srcs) == 2
        assert len(tr.kinds) == len(tr.srcs) == len(tr.values) == 1
