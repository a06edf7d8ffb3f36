"""Bit-exact model of the F_{p^2} adder/subtractor unit.

Two 127-bit modular adder/subtractor lanes (one per F_{p^2} component)
with conditional correction — again no ``% p``.  Supports the four
opcodes of the control word: ADD, SUB, NEG (0 - a) and CONJ (negate
imaginary half only).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..field.fp import P127
from ..field.fp2 import Fp2Raw
from ..trace.ops import OpKind


@dataclass
class AddSubStats:
    issues: int = 0


def _lane_add(a: int, b: int) -> int:
    s = a + b
    if s >= P127:
        s -= P127
    return s


def _lane_sub(a: int, b: int) -> int:
    s = a - b
    if s < 0:
        s += P127
    return s


def fp2_addsub_compute(kind: OpKind, a: Fp2Raw, b: Optional[Fp2Raw]) -> Fp2Raw:
    """One combinational pass of the adder/subtractor."""
    if kind is OpKind.ADD:
        assert b is not None
        return (_lane_add(a[0], b[0]), _lane_add(a[1], b[1]))
    if kind is OpKind.SUB:
        assert b is not None
        return (_lane_sub(a[0], b[0]), _lane_sub(a[1], b[1]))
    if kind is OpKind.NEG:
        return (_lane_sub(0, a[0]), _lane_sub(0, a[1]))
    if kind is OpKind.CONJ:
        return (a[0], _lane_sub(0, a[1]))
    raise ValueError(f"addsub unit cannot execute {kind}")


@dataclass
class AddSubUnit:
    """Pipelined wrapper (default latency 1)."""

    depth: int = 1
    stats: AddSubStats = field(default_factory=AddSubStats)
    _pipe: List[Optional[Fp2Raw]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._pipe = [None] * self.depth

    def reset(self) -> None:
        """Flush the pipeline and zero the statistics counters."""
        self._pipe = [None] * self.depth
        self.stats = AddSubStats()

    def tick(
        self, issue: Optional[Tuple[OpKind, Fp2Raw, Optional[Fp2Raw]]]
    ) -> Optional[Fp2Raw]:
        result = self._pipe[-1]
        for i in range(self.depth - 1, 0, -1):
            self._pipe[i] = self._pipe[i - 1]
        if issue is not None:
            kind, a, b = issue
            self._pipe[0] = fp2_addsub_compute(kind, a, b)
            self.stats.issues += 1
        else:
            self._pipe[0] = None
        return result

    @property
    def output(self) -> Optional[Fp2Raw]:
        """The value leaving the final stage at the next :meth:`tick`."""
        return self._pipe[-1]

    @property
    def busy(self) -> bool:
        return any(v is not None for v in self._pipe)
