"""The one per-item loop every per-theta reducer runs through.

Items run in order in the calling thread, so aggregates downstream are
bit-identical and nothing depends on a thread count.  A thread pool used to
run them when ``workers > 1``, on the grounds that numpy releases the GIL.
Since the block kernel a theta costs about 1 ms of short numpy calls, and
two threads fought over the GIL: on a 2-vCPU box ``--threads 2`` was
slower than ``--threads 1`` on every sampled command (best of 5: ``average``
at 4000 thetas 1250 against 340 ms, ``ergodicity`` 90 against 58 ms).
``workers`` is accepted and ignored, since ``bench/spans.py`` still passes it.
Callers may still call the package from their own threads.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(fn: Callable[[T], R], items: Sequence[T], workers: int = 1) -> List[R]:
    return [fn(x) for x in items]
