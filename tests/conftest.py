import pytest

from mvamp.linalg import _openblas_thread_calls


@pytest.fixture
def blas_threads():
    """Sets every OpenBLAS that mvamp pins to two threads for the test and
    restores the counts after it; returns a function that reads the counts."""
    calls = _openblas_thread_calls()
    saved = [get() for _, get, _ in calls]
    for _, _, set_ in calls:
        set_(2)
    yield lambda: [get() for _, get, _ in calls]
    for (_, _, set_), count in zip(calls, saved):
        set_(count)
