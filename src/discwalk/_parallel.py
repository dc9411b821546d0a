"""A plain per-item loop, kept only for the benchmark harness.

Nothing in the package calls ``ordered_map`` any more: every per-theta
statistic loops in the calling thread, in sample order.  ``bench/workloads.py``
imports this module and ``bench/spans.py`` wraps ``ordered_map``, so it goes
with the bench change that counts work by meaning (ROADMAP item 1).
``workers`` is accepted and ignored, since ``bench/spans.py`` still passes it.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(fn: Callable[[T], R], items: Sequence[T], workers: int = 1) -> List[R]:
    return [fn(x) for x in items]
