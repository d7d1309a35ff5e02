import signal

import pytest

from scepoly.rational import GaussianRational


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


GAUSSIAN_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "conjugate",
)


@pytest.fixture
def gaussian_arithmetic(monkeypatch):
    """The names of the GaussianRational arithmetic members called during the test, in call order;
    hashing and equality are not arithmetic."""
    calls = []
    for name in GAUSSIAN_ARITHMETIC:
        member = getattr(GaussianRational, name)

        def spy(*args, name=name, member=member):
            calls.append(name)
            return member(*args)

        monkeypatch.setattr(GaussianRational, name, spy)
    return calls
