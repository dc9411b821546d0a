import json
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from discwalk import AlphaSpec, resolve_alpha

PINNED_PATH = os.path.join(os.path.dirname(__file__), "pinned.json")


@pytest.fixture(scope="session")
def golden():
    return resolve_alpha(AlphaSpec(preset="golden"))


@pytest.fixture(scope="session")
def sqrt2m1():
    return resolve_alpha(AlphaSpec(preset="sqrt2m1"))


@pytest.fixture(scope="session")
def pinned():
    """Pilot-recorded reference values; regenerated only deliberately."""
    with open(PINNED_PATH) as f:
        return json.load(f)


@pytest.fixture(scope="session")
def from_threads():
    """Run ``call()`` from 4 of the caller's own threads at once and return
    their 4 results; the first exception raised is re-raised.  A small
    ``switch_interval`` makes the threads interleave more often."""
    def run(call, switch_interval=None):
        start = threading.Barrier(4)

        def go(_):
            start.wait(timeout=60)
            return call()

        interval = sys.getswitchinterval()
        if switch_interval is not None:
            sys.setswitchinterval(switch_interval)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                return list(pool.map(go, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)

    return run
