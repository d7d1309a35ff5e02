"""The verification suites as a library, with no argument parsing."""

import pytest

from scepoly import cli, suites
from scepoly.rational import GaussianRational
from scepoly.suites import VERIFY_SUITES, run_suite


@pytest.mark.parametrize("name", list(VERIFY_SUITES))
def test_each_suite_passes(name):
    report = run_suite(name, 6)
    assert len(report) > 0
    assert report.all_passed, report.failures


def test_all_is_every_suite_in_order():
    expected = tuple(e for name in VERIFY_SUITES for e in run_suite(name, 3).entries)
    assert run_suite("all", 3).entries == expected


def test_unknown_name_raises_value_error():
    with pytest.raises(ValueError, match="unknown suite 'bogus'"):
        run_suite("bogus", 3)


def test_cli_shares_the_suite_table():
    # Wrapping a suite in cli.VERIFY_SUITES must reach run_suite.
    assert cli.VERIFY_SUITES is suites.VERIFY_SUITES


@pytest.mark.parametrize("name,count", [("genfunc", 284), ("theorem2", 7)])
def test_series_suites_at_max_n_64(name, count):
    # 64 is the default SCE_MAX_N cap; both suites rest on FormalSeries products
    report = run_suite(name, 64)
    assert len(report) == count
    assert report.all_passed, report.failures


GAUSSIAN_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "conjugate",
)


def test_all_at_max_n_24_does_no_gaussian_arithmetic(monkeypatch):
    # The polynomial layers work on integer numerators, and the complex-argument
    # routes read Re(p/i^n) from them, so Gaussian rationals are only rates and
    # dict keys here; hashing and equality are not arithmetic.
    calls = []
    for name in GAUSSIAN_ARITHMETIC:
        member = getattr(GaussianRational, name)

        def spy(*args, name=name, member=member):
            calls.append(name)
            return member(*args)

        monkeypatch.setattr(GaussianRational, name, spy)
    report = run_suite("all", 24)
    assert report.all_passed, report.failures
    assert calls == [], f"{len(calls)} calls: {sorted(set(calls))}"
