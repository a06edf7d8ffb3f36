"""Tests for multi-scalar multiplication and batch Schnorr verification.

Covers the Straus-Shamir baseline, the Pippenger bucket method and the
``method="auto"`` crossover dispatch, the soundness preconditions of
randomized batch verification (order-N subgroup membership, on-curve
validation, ``secrets.SystemRandom`` weights), and the differential
batch ≡ per-item property under ``PYTEST_SEED``.
"""

import inspect
import os
import random
import zlib
from dataclasses import replace

import pytest

from repro.curve import AffinePoint, SUBGROUP_ORDER_N
from repro.curve.multiscalar import (
    MSM_SCALAR_BITS,
    PIPPENGER_CROSSOVER,
    PIPPENGER_WINDOW_MAX,
    PIPPENGER_WINDOW_MIN,
    batch_verify_schnorr,
    in_order_n_subgroup,
    multi_scalar_mul,
    multi_scalar_mul_pippenger,
    multi_scalar_mul_straus,
    pippenger_cost_model,
    pippenger_window_bits,
    validate_verify_item,
)
from repro.curve.params import PRIME_P
from repro.curve.point import random_point, random_subgroup_point
from repro.dsa import fourq_schnorr

SEED = int(os.environ.get("PYTEST_SEED", "0x4D534D"), 0)


def _rng(tag: str) -> random.Random:
    """Per-test RNG: PYTEST_SEED diversifies, the tag decorrelates."""
    return random.Random((SEED << 32) ^ zlib.crc32(tag.encode()))


def _signed(rng, n, signers=4):
    kps = [fourq_schnorr.generate_keypair(rng=rng) for _ in range(signers)]
    return [
        (
            kps[i % signers].public,
            b"batch item %d" % i,
            fourq_schnorr.sign(kps[i % signers], b"batch item %d" % i),
        )
        for i in range(n)
    ]


class TestMultiScalar:
    def test_matches_reference(self, rng):
        pts = [random_subgroup_point(rng) for _ in range(5)]
        ks = [rng.randrange(2**256) for _ in range(5)]
        got = multi_scalar_mul(ks, pts)
        exp = AffinePoint.identity()
        for k, p in zip(ks, pts):
            exp = exp + (k % SUBGROUP_ORDER_N) * p
        assert got == exp

    def test_single_point_degenerates_to_scalar_mul(self, rng):
        p = random_subgroup_point(rng)
        k = rng.randrange(2**256)
        assert multi_scalar_mul([k], [p]) == (k % SUBGROUP_ORDER_N) * p

    def test_empty_batch(self):
        assert multi_scalar_mul([], []) == AffinePoint.identity()

    def test_identity_points_skipped(self, rng):
        p = random_subgroup_point(rng)
        got = multi_scalar_mul([7, 5], [AffinePoint.identity(), p])
        assert got == 5 * p

    def test_zero_scalars(self, rng):
        p = random_subgroup_point(rng)
        q = random_subgroup_point(rng)
        assert multi_scalar_mul([0, 0], [p, q]) == AffinePoint.identity()

    def test_cancellation(self, rng):
        p = random_subgroup_point(rng)
        got = multi_scalar_mul([3, SUBGROUP_ORDER_N - 3], [p, p])
        assert got.is_identity()

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            multi_scalar_mul([1, 2], [random_subgroup_point(rng)])

    def test_larger_batch(self, rng):
        n = 8
        pts = [random_subgroup_point(rng) for _ in range(n)]
        ks = [rng.randrange(SUBGROUP_ORDER_N) for _ in range(n)]
        got = multi_scalar_mul(ks, pts)
        exp = AffinePoint.identity()
        for k, p in zip(ks, pts):
            exp = exp + k * p
        assert got == exp


class TestBatchVerify:
    @pytest.fixture(scope="class")
    def signed_batch(self):
        rng = random.Random(0xBA7C)
        items = []
        for i in range(4):
            kp = fourq_schnorr.generate_keypair(rng=rng)
            msg = f"CAM vehicle={i}".encode()
            items.append((kp.public, msg, fourq_schnorr.sign(kp, msg)))
        return items

    def test_valid_batch_accepts(self, signed_batch, rng):
        assert batch_verify_schnorr(signed_batch, rng=rng)

    def test_empty_batch_accepts(self, rng):
        assert batch_verify_schnorr([], rng=rng)

    def test_single_item(self, signed_batch, rng):
        assert batch_verify_schnorr(signed_batch[:1], rng=rng)

    def test_forged_message_rejected(self, signed_batch, rng):
        bad = list(signed_batch)
        pub, _, sig = bad[2]
        bad[2] = (pub, b"evil payload", sig)
        assert not batch_verify_schnorr(bad, rng=rng)

    def test_tampered_s_rejected(self, signed_batch, rng):
        bad = list(signed_batch)
        pub, msg, sig = bad[0]
        bad[0] = (pub, msg, replace(sig, s=(sig.s * 2) % SUBGROUP_ORDER_N))
        assert not batch_verify_schnorr(bad, rng=rng)

    def test_swapped_keys_rejected(self, signed_batch, rng):
        bad = list(signed_batch)
        (p0, m0, s0), (p1, m1, s1) = bad[0], bad[1]
        bad[0], bad[1] = (p1, m0, s0), (p0, m1, s1)
        assert not batch_verify_schnorr(bad, rng=rng)

    def test_out_of_range_s_rejected(self, signed_batch, rng):
        bad = list(signed_batch)
        pub, msg, sig = bad[0]
        bad[0] = (pub, msg, replace(sig, s=0))
        assert not batch_verify_schnorr(bad, rng=rng)

    def test_invalid_commitment_rejected(self, signed_batch, rng):
        bad = list(signed_batch)
        pub, msg, sig = bad[0]
        bad[0] = (pub, msg, replace(sig, commit_x=(1, 1)))
        assert not batch_verify_schnorr(bad, rng=rng)


class TestMethodEquivalence:
    """Straus, Pippenger, and auto agree on every input shape."""

    @pytest.mark.parametrize("n", [1, 2, 4, 7, 8, 9, 16])
    def test_methods_agree_across_crossover(self, n):
        rng = _rng(f"methods-{n}")
        pts = [random_subgroup_point(rng) for _ in range(n)]
        ks = [rng.randrange(2**256) for _ in range(n)]
        straus = multi_scalar_mul_straus(ks, pts)
        pip = multi_scalar_mul_pippenger(ks, pts)
        auto = multi_scalar_mul(ks, pts)
        assert straus == pip == auto

    def test_methods_agree_on_degenerate_pairs(self):
        rng = _rng("degenerate")
        p = random_subgroup_point(rng)
        q = random_subgroup_point(rng)
        cases = [
            ([0] * 9, [random_subgroup_point(rng) for _ in range(9)]),
            ([7, 0, SUBGROUP_ORDER_N, 5],
             [p, q, random_subgroup_point(rng), AffinePoint.identity()]),
            ([3, SUBGROUP_ORDER_N - 3] + [0] * 8, [p, p] + [q] * 8),
        ]
        for ks, pts in cases:
            assert (
                multi_scalar_mul_straus(ks, pts)
                == multi_scalar_mul_pippenger(ks, pts)
                == multi_scalar_mul(ks, pts)
            )

    def test_explicit_method_dispatch(self):
        rng = _rng("dispatch")
        pts = [random_subgroup_point(rng) for _ in range(3)]
        ks = [rng.randrange(SUBGROUP_ORDER_N) for _ in range(3)]
        assert multi_scalar_mul(ks, pts, method="straus") == multi_scalar_mul(
            ks, pts, method="pippenger"
        )
        with pytest.raises(ValueError):
            multi_scalar_mul(ks, pts, method="bogus")

    def test_auto_counts_live_pairs_not_list_length(self):
        """Identity/zero padding must not push auto over the crossover."""
        rng = _rng("live-pairs")
        p = random_subgroup_point(rng)
        ks = [5] + [0] * (PIPPENGER_CROSSOVER + 4)
        pts = [p] + [random_subgroup_point(rng)
                     for _ in range(PIPPENGER_CROSSOVER + 4)]
        assert multi_scalar_mul(ks, pts) == 5 * p

    def test_cost_model_and_window_sane(self):
        assert pippenger_window_bits(2) >= 2
        assert pippenger_window_bits(10**9) <= 8
        m_small, a_small = pippenger_cost_model(8)
        m_large, a_large = pippenger_cost_model(256)
        assert 0 < m_small < m_large
        assert 0 < a_small < a_large


class TestTunables:
    """The module-level performance knobs are pinned, not folklore.

    ``PIPPENGER_CROSSOVER``, the window clamp, and ``MSM_SCALAR_BITS``
    are the three constants ``repro.curve.multiscalar`` exports as
    documented tunables.  These tests pin their current values and the
    invariants the rest of the stack relies on, so changing any of them
    is a deliberate, reviewed act (re-run ``benchmarks/bench_msm.py``
    first, then update the pin here).
    """

    def test_crossover_is_where_the_cost_model_says(self):
        # The pinned value.  8 is the measured wall-clock crossover on
        # the reference field arithmetic (bench_msm.py, PR 8): Straus
        # pays a per-point setup (endomorphism images + 8-entry table)
        # that Pippenger avoids entirely.
        assert PIPPENGER_CROSSOVER == 8, (
            "PIPPENGER_CROSSOVER retuned — re-run benchmarks/bench_msm.py "
            "and update this pin alongside the constant's docstring"
        )
        # The cost model backs the story that a single-digit crossover
        # is plausible: per-point cost falls as each extra point splits
        # the fixed 246-doubling chain and the bucket folds.  Within a
        # window width it falls strictly (the sawtooth at width steps —
        # n = 8, 16, ... — is the 2^c fold growing ahead of the batch),
        # and doubling the batch always wins outright.
        per_point = {
            n: pippenger_cost_model(n)[0] / n
            for n in range(1, 8 * PIPPENGER_CROSSOVER + 1)
        }
        for n in range(1, 8 * PIPPENGER_CROSSOVER):
            if pippenger_window_bits(n) == pippenger_window_bits(n + 1):
                assert per_point[n] > per_point[n + 1], (
                    "pippenger_cost_model lost its economies of scale", n
                )
        for n in range(1, 4 * PIPPENGER_CROSSOVER + 1):
            assert per_point[2 * n] < per_point[n], n
        # ...and by the crossover the shared doubling chain — the fixed
        # cost that makes tiny batches a bad deal — is a small minority
        # of the total, i.e. already amortized.
        doubling_mults = 7 * MSM_SCALAR_BITS
        total_at_crossover = pippenger_cost_model(PIPPENGER_CROSSOVER)[0]
        assert doubling_mults < total_at_crossover / 4

    def test_auto_dispatch_switches_exactly_at_the_crossover(self, monkeypatch):
        # Spy on both strategies; auto must flip from Straus to
        # Pippenger at exactly PIPPENGER_CROSSOVER live pairs.
        import repro.curve.multiscalar as msm

        calls = []
        real_straus = msm.multi_scalar_mul_straus
        real_pip = msm.multi_scalar_mul_pippenger
        monkeypatch.setattr(
            msm, "multi_scalar_mul_straus",
            lambda ks, pts, **kw: (calls.append("straus"),
                                   real_straus(ks, pts, **kw))[1],
        )
        monkeypatch.setattr(
            msm, "multi_scalar_mul_pippenger",
            lambda ks, pts, **kw: (calls.append("pippenger"),
                                   real_pip(ks, pts, **kw))[1],
        )
        rng = _rng("tunable-dispatch")
        for n in (PIPPENGER_CROSSOVER - 1, PIPPENGER_CROSSOVER):
            pts = [random_subgroup_point(rng) for _ in range(n)]
            ks = [rng.randrange(1, SUBGROUP_ORDER_N) for _ in range(n)]
            msm.multi_scalar_mul(ks, pts)
        assert calls == ["straus", "pippenger"]

    def test_window_bits_respects_the_documented_clamp(self):
        assert (PIPPENGER_WINDOW_MIN, PIPPENGER_WINDOW_MAX) == (2, 8), (
            "window clamp retuned — re-run benchmarks/bench_msm.py and "
            "update this pin"
        )
        widths = [pippenger_window_bits(n) for n in range(1, 5000)]
        assert all(
            PIPPENGER_WINDOW_MIN <= w <= PIPPENGER_WINDOW_MAX for w in widths
        )
        # Monotone non-decreasing: more points never shrink the window.
        assert all(a <= b for a, b in zip(widths, widths[1:]))
        assert pippenger_window_bits(1) == PIPPENGER_WINDOW_MIN
        assert pippenger_window_bits(10**9) == PIPPENGER_WINDOW_MAX

    def test_scalar_bits_matches_the_subgroup_order(self):
        assert MSM_SCALAR_BITS == 246
        # N is a 246-bit prime: every reduced scalar fits, and the
        # window heuristic's bit budget is not an underestimate.
        assert SUBGROUP_ORDER_N.bit_length() == MSM_SCALAR_BITS
        # The cost model defaults to the same budget: passing it
        # explicitly must be a no-op.
        assert pippenger_cost_model(16) == pippenger_cost_model(
            16, bits=MSM_SCALAR_BITS
        )


class TestSubgroupValidation:
    """The soundness precondition: every point in the order-N subgroup."""

    def test_generator_and_identity_are_members(self):
        assert in_order_n_subgroup(AffinePoint.generator())
        assert in_order_n_subgroup(AffinePoint.identity())

    def test_random_cofactor_point_is_not_member(self):
        # A uniformly random curve point carries a 392-torsion component
        # with probability 1 - 1/392; the fixed seed pins a witness.
        assert not in_order_n_subgroup(random_point(random.Random(0xC0F)))

    def test_low_order_point_is_not_member(self):
        # (0, -1) has order 2: the classic small-subgroup confinement
        # point that a cofactor-blind batch verifier would accept.
        low = AffinePoint((0, 0), (PRIME_P - 1, 0))
        assert not in_order_n_subgroup(low)

    def test_validate_rejects_off_subgroup_public(self):
        rng = _rng("off-subgroup")
        (public, msg, sig), = _signed(rng, 1)
        assert validate_verify_item(public, sig) is not None
        assert validate_verify_item(random_point(rng), sig) is None

    def test_validate_rejects_malformed(self):
        rng = _rng("malformed")
        (public, msg, sig), = _signed(rng, 1)
        assert validate_verify_item(None, sig) is None
        assert validate_verify_item(public, None) is None
        assert validate_verify_item(public, replace(sig, s=0)) is None
        assert validate_verify_item(
            public, replace(sig, s=SUBGROUP_ORDER_N)
        ) is None
        assert validate_verify_item(public, replace(sig, commit_x=(1, 1))) is None

    def test_batch_rejects_off_subgroup_public(self):
        rng = _rng("batch-subgroup")
        items = _signed(rng, 3)
        _, msg, sig = items[1]
        items[1] = (random_point(rng), msg, sig)
        assert not batch_verify_schnorr(items, rng=rng)

    def test_batch_rejects_low_order_public(self):
        rng = _rng("batch-low-order")
        items = _signed(rng, 2)
        _, msg, sig = items[0]
        items[0] = (AffinePoint((0, 0), (PRIME_P - 1, 0)), msg, sig)
        assert not batch_verify_schnorr(items, rng=rng)


class TestBatchSoundness:
    def test_forged_item_hidden_in_64_always_rejected(self):
        rng = _rng("forged-64")
        items = _signed(rng, 64)
        public, _, sig = items[37]
        items[37] = (public, b"forged payload", sig)
        # One shot is sound with probability 1 - 2^-128 already; three
        # independently weighted runs guard the test against a weight
        # -generation bug that a single draw could mask.
        for trial in range(3):
            assert not batch_verify_schnorr(items, rng=_rng(f"w{trial}"))

    def test_differential_batch_matches_per_item(self):
        """Randomized mixes: the batch verdict is the AND of per-item."""
        rng = _rng("differential")
        for _ in range(4):
            items = _signed(rng, rng.randrange(1, 7))
            if rng.random() < 0.5:  # sometimes plant a forgery
                i = rng.randrange(len(items))
                public, _, sig = items[i]
                items[i] = (public, b"tampered", sig)
            expected = all(
                fourq_schnorr.verify(pub, msg, sig) for pub, msg, sig in items
            )
            assert batch_verify_schnorr(items, rng=rng) is expected

    def test_default_weights_come_from_system_random(self):
        """Regression pin for the weak-RNG fix: with no injected rng the
        weights must come from the OS CSPRNG, not ``random``."""
        source = inspect.getsource(batch_verify_schnorr)
        assert "SystemRandom" in source
        sig = inspect.signature(batch_verify_schnorr)
        assert sig.parameters["rng"].default is None


class TestStrausCompiledEndomorphisms:
    """Straus builds its tables from the compiled, inversion-free maps."""

    def test_compiled_images_equal_isogeny_images(self):
        from repro.curve.endomaps import (
            apply_compiled_endo_frac,
            compile_endomorphisms,
            frac_to_r1,
        )
        from repro.curve.endomorphisms import default_endomorphisms
        from repro.field.fp2 import fp2_inv, fp2_mul

        phi_c, psi_c = compile_endomorphisms()
        endo = default_endomorphisms()
        rng = _rng("compiled-images")
        for pt in [AffinePoint.generator()] + [random_subgroup_point(rng) for _ in range(3)]:
            fx, fy = (pt.x, (1, 0)), (pt.y, (1, 0))
            fx_phi, fy_phi = apply_compiled_endo_frac(phi_c, fx, fy)
            images = (
                (frac_to_r1(fx_phi, fy_phi), endo.phi(pt)),
                (frac_to_r1(*apply_compiled_endo_frac(psi_c, fx, fy)), endo.psi(pt)),
                (
                    frac_to_r1(*apply_compiled_endo_frac(psi_c, fx_phi, fy_phi)),
                    endo.psi(endo.phi(pt)),
                ),
            )
            for r1, affine in images:
                zi = fp2_inv(r1.z)
                assert (fp2_mul(r1.x, zi), fp2_mul(r1.y, zi)) == (affine.x, affine.y)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_straus_equals_naive_affine_sum(self, n):
        rng = _rng(f"straus-naive-{n}")
        for _ in range(2):
            pts = [AffinePoint.generator()] + [
                random_subgroup_point(rng) for _ in range(n - 1)
            ]
            ks = [rng.randrange(2**256) for _ in range(n)]
            expected = AffinePoint.identity()
            for k, p in zip(ks, pts):
                expected = expected + (k % SUBGROUP_ORDER_N) * p
            assert multi_scalar_mul_straus(ks, pts) == expected

    def test_batch_verdicts_match_per_item_verification(self):
        rng = _rng("straus-verdicts")
        for n in (1, 2, 3):
            honest = _signed(rng, n)
            assert batch_verify_schnorr(honest, rng=rng)
            forged = list(honest)
            public, _, sig = forged[-1]
            forged[-1] = (public, b"forged payload", sig)
            assert not fourq_schnorr.verify(*forged[-1])
            assert not batch_verify_schnorr(forged, rng=rng)

    def test_no_endomorphism_override(self):
        for fn in (multi_scalar_mul_straus, multi_scalar_mul):
            assert "endo" not in inspect.signature(fn).parameters
