"""The verification suites as a library, with no argument parsing."""

import pytest

from scepoly import cli, families, suites
from scepoly.poly import Poly
from scepoly.rational import I, GaussianRational
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


def test_routes_build_e_of_ix_once_per_index(monkeypatch):
    # The complex-argument route is c_from_e(n) alone; s_from_e(n) is its negative.
    scaled, explicit = [], []
    scale_arg, e_explicit = Poly.scale_arg, families.e_explicit

    def scale_spy(p, c):
        if c == I:
            scaled.append(p)
        return scale_arg(p, c)

    def explicit_spy(n):
        explicit.append(n)
        return e_explicit(n)

    monkeypatch.setattr(Poly, "scale_arg", scale_spy)
    monkeypatch.setattr(families, "e_explicit", explicit_spy)
    report = run_suite("routes", 24)
    assert report.all_passed, report.failures
    assert (len(scaled), len(explicit)) == (25, 50)
