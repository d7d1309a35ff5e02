import signal

import pytest


@pytest.fixture
def deadline():
    """Fail the test after 30 s, so a loop that never settles fails instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError("test ran past its 30 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
