"""Deterministic parallel mapping.

Work items are mapped in parallel but results are always collected in item
order, so aggregates downstream are bit-identical regardless of worker count.
The heavy kernels are numpy ufunc chains, which release the GIL, so threads
give real speedup without pickling overhead.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(fn: Callable[[T], R], items: Sequence[T], workers: int = 1) -> List[R]:
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
