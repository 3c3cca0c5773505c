# Keeps the tests directory on sys.path so test modules can import the
# shared oracle helpers in oracles.py.

import pytest


@pytest.fixture
def cold_trig_caches():
    """R's caches of pi and of the seeds, emptied first, so that no earlier
    test can change a count of the work done or of the lines run."""
    from knotcert.fs_invariant import _pi, _seed

    _pi.cache_clear()
    _seed.cache_clear()
