"""Pass/fail reports for identity-checking suites.

Failures are data, not exceptions: a report collects one entry per checked
identity so callers (tests, the verify command) can render or aggregate them.
"""

from __future__ import annotations

from .rational import _Record

__all__ = ["CheckEntry", "CheckReport"]


class CheckEntry(_Record):
    __slots__ = ("label", "passed")

    def __init__(self, label: str, passed: bool):  # a verify pass builds thousands: no field loop
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "passed", passed)


class CheckReport(_Record):
    __slots__ = ("entries",)

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def failures(self) -> tuple[CheckEntry, ...]:
        return tuple(e for e in self.entries if not e.passed)

    def __len__(self) -> int:
        return len(self.entries)

    @staticmethod
    def of(pairs) -> "CheckReport":
        return CheckReport(tuple(CheckEntry(label, bool(ok)) for label, ok in pairs))

    def merged_with(self, other: "CheckReport") -> "CheckReport":
        return CheckReport(self.entries + other.entries)
