"""Multi-scalar multiplication: sum_i [k_i] P_i for n points.

Batch signature verification — the ITS scenario's actual hot loop when
messages arrive from many vehicles — evaluates sums of scalar
multiples.  Two evaluation strategies live here:

* **Straus-Shamir** (:func:`multi_scalar_mul_straus`): generalizes the
  double-base path of :mod:`repro.curve.scalarmult`.  Each scalar gets
  a 4-D decomposition and an 8-entry table, and all of them share one
  64-iteration doubling chain.  Per-point cost is dominated by the
  endomorphism/table setup, so it wins for small batches.

* **Pippenger bucket method**
  (:func:`multi_scalar_mul_pippenger`): no per-point tables at all.
  Scalars are cut into ``c``-bit windows; within a window every point
  is added into the bucket its digit selects, then the buckets are
  folded with the running-sum trick (sum_d d*B_d costs 2*(2^c - 1)
  additions regardless of n).  Amortized cost per point falls as the
  batch grows, so it wins past a modest batch size.

:func:`multi_scalar_mul` picks between them automatically
(``method="auto"``) with a measured crossover
(:data:`PIPPENGER_CROSSOVER`).

Both paths run on the unified extended-coordinate formulas of
:mod:`repro.curve.edwards`; ``ecc_add_core`` is the a=-1
Hisil-Wong-Carter-Dawson addition, complete on the odd-order subgroup
(it handles the doubling and identity cases the bucket aggregation can
produce — exercised explicitly by the test suite).
"""

from __future__ import annotations

import secrets
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from .decompose import FourQDecomposer
from .edwards import (
    RAW_OPS,
    PointR1,
    PointR2,
    ecc_add_core,
    ecc_double,
    ecc_normalize,
    point_r1_from_affine,
    r1_to_r2,
    r2_negate,
    r2_select,
)
from .endomaps import (
    CompiledEndo,
    apply_compiled_endo_frac,
    compile_endomorphisms,
    frac_to_r1,
)
from .endomorphisms import default_decomposer
from .params import SUBGROUP_ORDER_N, is_on_curve
from .point import AffinePoint
from .recoding import recode_glv_sac
from .scalarmult import (
    _r2_sign_select,
    _reseed_with_valid_t,
    build_table,
    scalar_mul_wnaf,
)

# --------------------------------------------------------------------------
# Tunables.  These three constants are the module's public performance
# knobs; everything else derives from them.  tests/test_multiscalar.py
# pins their measured values and invariants so a retune is a deliberate,
# reviewed act (re-run ``benchmarks/bench_msm.py`` before changing any).
# --------------------------------------------------------------------------

#: Batch size at which the bucket method overtakes Straus-Shamir and
#: ``multi_scalar_mul(method="auto")`` switches.  Counted over *live*
#: pairs (identity points and zero scalars excluded).  Measured on the
#: reference Python field arithmetic (PR 8, ``bench_msm.py``): warm
#: Straus costs ~3.3 ms/point (endomorphisms + 8-entry table dominate),
#: while Pippenger's shared doubling chain and table-free windows
#: amortize below that once ~8 points split the fixed 246-doubling
#: cost.  ``test_crossover_is_where_the_cost_model_says`` pins the
#: value and checks that amortization story against
#: :func:`pippenger_cost_model`.
PIPPENGER_CROSSOVER = 8

#: Window-width clamp for :func:`pippenger_window_bits`.  Below 2 bits
#: the bucket method degenerates (one bucket per window); above 8 bits
#: the 2^c-bucket fold swamps any batch size this serving stack sees
#: (the fold costs ~2*2^c adds per window against n/2^c saved per
#: point).
PIPPENGER_WINDOW_MIN = 2
PIPPENGER_WINDOW_MAX = 8

#: Scalar bit-width the window heuristic and cost model assume
#: (scalars are reduced mod the ~246-bit subgroup order before
#: windowing).
MSM_SCALAR_BITS = 246

_MSM_METHODS = ("auto", "straus", "pippenger")


def pippenger_window_bits(n: int) -> int:
    """Window width (bucket digit bits) for an n-point Pippenger MSM.

    The classic balance point: bucket aggregation costs ~2*2^c adds per
    window while the per-point work saves bits/c adds, giving
    c ~ log2(n), clamped to [:data:`PIPPENGER_WINDOW_MIN`,
    :data:`PIPPENGER_WINDOW_MAX`].
    """
    return max(PIPPENGER_WINDOW_MIN,
               min(PIPPENGER_WINDOW_MAX, n.bit_length() - 1))


def msm_bucket_window(
    acc: Optional[PointR1],
    point_r2s: Sequence[PointR2],
    digits: Sequence[int],
    window: int,
    ops=RAW_OPS,
) -> Optional[PointR1]:
    """One Pippenger window: shift, bucket-accumulate, fold.

    Doubles ``acc`` ``window`` times (shifting the accumulator past the
    digits already processed), adds every point with a nonzero digit
    into its bucket, then folds the buckets with the running-sum trick:
    iterating buckets from the top digit down, ``running`` accumulates
    B_top + ... + B_d and ``wsum`` accumulates the runnings, so that
    ``wsum`` ends at sum_d d*B_d without any per-bucket scalar
    multiplications.

    This is the serving hot loop *and* the traced ASIC kernel: the same
    sequence of field operations runs with ``ops=RAW_OPS`` here and
    with a :class:`~repro.trace.tracer.Tracer` in
    :func:`repro.trace.program.trace_msm_window`.

    Args:
        acc: running accumulator (R1) from higher windows, or ``None``.
        point_r2s: the batch points, pre-converted to R2.
        digits: this window's digit per point, each in [0, 2^window).
        window: digit width in bits.
        ops: field-operation provider (RAW_OPS or a Tracer).

    Returns:
        The new accumulator, or ``None`` if there is still nothing to
        accumulate.
    """
    if acc is not None:
        for _ in range(window):
            acc = ecc_double(acc, ops)
    buckets: List[Optional[PointR1]] = [None] * ((1 << window) - 1)
    for r2, digit in zip(point_r2s, digits):
        if digit == 0:
            continue
        held = buckets[digit - 1]
        if held is None:
            # First occupant: R2 -> R1 re-seed (cheaper than a fake add).
            buckets[digit - 1] = _reseed_with_valid_t(r2, ops)
        else:
            buckets[digit - 1] = ecc_add_core(held, r2, ops)
    running: Optional[PointR1] = None
    wsum: Optional[PointR1] = None
    for bucket in reversed(buckets):
        if bucket is not None:
            running = (
                bucket
                if running is None
                else ecc_add_core(running, r1_to_r2(bucket, ops), ops)
            )
        if running is not None:
            wsum = (
                running
                if wsum is None
                else ecc_add_core(wsum, r1_to_r2(running, ops), ops)
            )
    if wsum is None:
        return acc
    if acc is None:
        return wsum
    return ecc_add_core(acc, r1_to_r2(wsum, ops), ops)


def pippenger_cost_model(
    n: int, window: Optional[int] = None, bits: int = MSM_SCALAR_BITS
) -> Tuple[int, int]:
    """Estimated (multiplier_ops, addsub_ops) for an n-point bucket MSM.

    Counts F_{p^2} unit ops from the formula costs: doubling 7M+6A
    (squarings issue on the multiplier), addition 8M+6A, R1->R2
    conversion 2M+3A, bucket re-seed 3M+2A.  Bucket additions assume
    every digit is nonzero (the worst case and, for random scalars,
    nearly the average once n >> 2^window).  Used by the serving layer
    to extrapolate simulated cycles from the traced window kernel.
    """
    if n <= 0:
        return (0, 0)
    c = window or pippenger_window_bits(n)
    n_windows = -(-bits // c)
    doubles = bits  # c doublings per window after the first
    bucket_adds = n * n_windows
    bucket_seeds = min(n, (1 << c) - 1) * n_windows
    fold_adds = 2 * min(n, (1 << c) - 1) * n_windows
    fold_convs = fold_adds + n_windows  # R1->R2 per fold add + acc merge
    mults = (
        7 * doubles
        + 8 * (bucket_adds + fold_adds)
        + 3 * bucket_seeds
        + 2 * (fold_convs + n)  # + initial R2 conversion of each point
    )
    addsubs = (
        6 * doubles
        + 6 * (bucket_adds + fold_adds)
        + 2 * bucket_seeds
        + 3 * (fold_convs + n)
    )
    return (mults, addsubs)


def multi_scalar_mul_pippenger(
    scalars: Sequence[int],
    points: Sequence[AffinePoint],
    window: Optional[int] = None,
) -> AffinePoint:
    """Compute sum_i [k_i] P_i with the bucket method.

    Args:
        scalars: any integers (reduced mod N internally).
        points: order-N points, same length as ``scalars``.
        window: digit width override (default:
            :func:`pippenger_window_bits`).

    Returns:
        The affine sum; the identity for an empty batch.

    Raises:
        ValueError: on length mismatch.
    """
    if len(scalars) != len(points):
        raise ValueError("scalars and points must have equal length")
    pairs = [
        (k % SUBGROUP_ORDER_N, pt)
        for k, pt in zip(scalars, points)
        if not pt.is_identity()
    ]
    pairs = [(k, pt) for k, pt in pairs if k]
    if not pairs:
        return AffinePoint.identity()
    ops = RAW_OPS
    c = window or pippenger_window_bits(len(pairs))
    point_r2s = [
        r1_to_r2(point_r1_from_affine(pt.x, pt.y, ops), ops) for _, pt in pairs
    ]
    bits = max(k.bit_length() for k, _ in pairs)
    n_windows = -(-bits // c)
    mask = (1 << c) - 1
    acc: Optional[PointR1] = None
    for w in range(n_windows - 1, -1, -1):
        shift = w * c
        digits = [(k >> shift) & mask for k, _ in pairs]
        acc = msm_bucket_window(acc, point_r2s, digits, c, ops)
    if acc is None:  # pragma: no cover - nonzero scalars guarantee output
        return AffinePoint.identity()
    x, y = ecc_normalize(acc, ops)
    return AffinePoint(x, y, check=False)


@lru_cache(maxsize=1)
def _compiled_endomorphisms() -> Tuple[CompiledEndo, CompiledEndo]:
    return compile_endomorphisms()


def multi_scalar_mul_straus(
    scalars: Sequence[int],
    points: Sequence[AffinePoint],
    decomposer: Optional[FourQDecomposer] = None,
) -> AffinePoint:
    """Compute sum_i [k_i] P_i with one shared doubling chain.

    Each point pays the 4-D GLV+GLS setup (endomorphism images plus an
    8-entry table) and the recoded digits interleave over a single
    64-iteration double-and-add loop.  The images phi(P), psi(P) and
    psi(phi(P)) come from the compiled, inversion-free maps the traced
    scalar multiplication runs (:func:`~repro.curve.endomaps.compile_endomorphisms`),
    straight into R1 coordinates.

    Args:
        scalars: any integers (reduced mod N internally).
        points: order-N points, same length as ``scalars``.

    Returns:
        The affine sum; the identity for an empty batch.

    Raises:
        ValueError: on length mismatch.
    """
    if len(scalars) != len(points):
        raise ValueError("scalars and points must have equal length")
    pairs = [
        (k, p) for k, p in zip(scalars, points) if not p.is_identity()
    ]
    if not pairs:
        return AffinePoint.identity()
    phi_c, psi_c = _compiled_endomorphisms()
    decomposer = decomposer or default_decomposer()

    tables = []
    recs = []
    one = (1, 0)
    for k, pt in pairs:
        fx, fy = (pt.x, one), (pt.y, one)
        fx_phi, fy_phi = apply_compiled_endo_frac(phi_c, fx, fy)
        tables.append(
            build_table(
                point_r1_from_affine(pt.x, pt.y),
                frac_to_r1(fx_phi, fy_phi),
                frac_to_r1(*apply_compiled_endo_frac(psi_c, fx, fy)),
                frac_to_r1(*apply_compiled_endo_frac(psi_c, fx_phi, fy_phi)),
            )
        )
        dec = decomposer.decompose(k)
        recs.append(
            recode_glv_sac(
                tuple(dec.scalars),
                length=max(65, max(s.bit_length() for s in dec.scalars) + 1),
            )
        )

    ops = RAW_OPS
    length = max(r.length for r in recs)
    q: Optional[PointR1] = None
    for i in range(length - 1, -1, -1):
        if q is not None:
            q = ecc_double(q, ops)
        for table, rec in zip(tables, recs):
            if i >= rec.length:
                continue
            entry = r2_select(table, rec.digits[i], ops)
            negated = r2_negate(entry, ops)
            chosen = _r2_sign_select(entry, negated, rec.signs[i], ops)
            if q is None:
                q = _reseed_with_valid_t(chosen, ops)
            else:
                q = ecc_add_core(q, chosen, ops)
    assert q is not None
    x, y = ecc_normalize(q, ops)
    return AffinePoint(x, y, check=False)


def multi_scalar_mul(
    scalars: Sequence[int],
    points: Sequence[AffinePoint],
    decomposer: Optional[FourQDecomposer] = None,
    method: str = "auto",
) -> AffinePoint:
    """Compute sum_i [k_i] P_i, choosing the evaluation strategy.

    ``method="auto"`` counts the points that actually contribute
    (non-identity, nonzero scalar mod N) and uses Straus-Shamir below
    :data:`PIPPENGER_CROSSOVER`, the Pippenger bucket method at or
    above it.  ``"straus"`` / ``"pippenger"`` force a path (the
    ``decomposer`` override only applies to Straus).

    Args:
        scalars: any integers (reduced mod N internally).
        points: order-N points, same length as ``scalars``.

    Returns:
        The affine sum; the identity for an empty batch.

    Raises:
        ValueError: on length mismatch or unknown ``method``.
    """
    if method not in _MSM_METHODS:
        raise ValueError(f"method must be one of {_MSM_METHODS}")
    if len(scalars) != len(points):
        raise ValueError("scalars and points must have equal length")
    if method == "auto":
        live = sum(
            1
            for k, p in zip(scalars, points)
            if not p.is_identity() and k % SUBGROUP_ORDER_N
        )
        method = "pippenger" if live >= PIPPENGER_CROSSOVER else "straus"
    if method == "pippenger":
        return multi_scalar_mul_pippenger(scalars, points)
    return multi_scalar_mul_straus(scalars, points, decomposer=decomposer)


@lru_cache(maxsize=4096)
def _in_subgroup_cached(x: Tuple[int, int], y: Tuple[int, int]) -> bool:
    pt = AffinePoint(x, y, check=False)
    return scalar_mul_wnaf(SUBGROUP_ORDER_N, pt, width=5).is_identity()


def in_order_n_subgroup(pt: AffinePoint) -> bool:
    """True iff ``pt`` lies in the order-N subgroup (identity included).

    FourQ's full group has order 392*N; a point with a cofactor
    component survives [N]P != O.  The check runs a plain wNAF ladder —
    deliberately *not* the endomorphism path, whose decomposition is
    only valid on the subgroup being tested.  Verdicts are memoized per
    coordinate pair (membership is a pure property of the point), so
    batch verification pays one ladder per distinct key even across
    bisection rounds and repeated batches.
    """
    if pt.is_identity():
        return True
    return _in_subgroup_cached(pt.x, pt.y)


def validate_verify_item(public, sig) -> Optional[AffinePoint]:
    """Vet one (public, signature) pair for sound batch verification.

    Returns the reconstructed commitment on success, ``None`` on any
    rejection: malformed types, off-curve public or commitment,
    out-of-range s, or either point outside the order-N subgroup.  The
    subgroup requirement is what makes the random-linear-combination
    soundness argument go through — with cofactor-component points the
    relation can hold mod the small factors with probability far above
    2^-128 (1/7 for an order-7 component).
    """
    try:
        commit = AffinePoint(sig.commit_x, sig.commit_y)
        if not (1 <= sig.s < SUBGROUP_ORDER_N):
            return None
        if not isinstance(public, AffinePoint):
            return None
        if not public.is_identity() and not is_on_curve(public.x, public.y):
            return None
    except (TypeError, ValueError, AttributeError):
        return None
    if not in_order_n_subgroup(public):
        return None
    if not in_order_n_subgroup(commit):
        return None
    return commit


def batch_verify_schnorr(
    items: Sequence, rng=None
) -> bool:
    """Batch-verify FourQ-Schnorr signatures with random weights.

    ``items`` is a sequence of ``(public, message, signature)`` triples
    (types from :mod:`repro.dsa.fourq_schnorr`).  Uses the standard
    small-exponent randomized batching: with random 128-bit weights
    z_i, checks

        sum_i z_i s_i * G  ==  sum_i z_i R_i + sum_i (z_i e_i) Q_i

    via one multi-scalar multiplication.  Sound except with probability
    ~2^-128 per forged batch, **provided** the weights are
    unpredictable to the signer and every point is in the order-N
    subgroup — so the weights default to the OS CSPRNG
    (``secrets.SystemRandom``; pass a seeded ``rng`` only in tests) and
    every public key and commitment is membership-checked before
    batching.  Returns False on any malformed or out-of-subgroup
    input.
    """
    rng = rng or secrets.SystemRandom()
    if not items:
        return True
    from ..dsa.fourq_schnorr import _challenge

    scalars = []
    points = []
    s_weighted = 0
    for public, message, sig in items:
        commit = validate_verify_item(public, sig)
        if commit is None:
            return False
        z = rng.getrandbits(128) | 1
        e = _challenge(commit, public, message)
        s_weighted = (s_weighted + z * sig.s) % SUBGROUP_ORDER_N
        scalars.append(z % SUBGROUP_ORDER_N)
        points.append(commit)
        scalars.append(z * e % SUBGROUP_ORDER_N)
        points.append(public)
    lhs = multi_scalar_mul(
        [s_weighted] + [SUBGROUP_ORDER_N - s for s in scalars],
        [AffinePoint.generator()] + points,
    )
    return lhs.is_identity()
