"""The check report every subcommand emits, and its summary counts."""

from __future__ import annotations


class CheckReport:
    """One verified claim: identifier, outcome, exact values, citation.

    A plain class, not a dataclass, so that `order` starts without
    importing `dataclasses`.
    """

    __slots__ = ("check_id", "status", "expected", "actual", "citation", "ms")

    def __init__(self, check_id: str, status: str, expected: str, actual: str,
                 citation: str, ms: int = 0):
        self.check_id = check_id
        self.status = status  # pass | fail | skip | inconclusive
        self.expected = expected
        self.actual = actual
        self.citation = citation
        self.ms = ms

    def as_dict(self) -> dict:
        return {
            "id": self.check_id,
            "status": self.status,
            "expected": self.expected,
            "actual": self.actual,
            "citation": self.citation,
            "ms": self.ms,
        }


def summarize(checks: list[CheckReport]) -> dict:
    counts = {"pass": 0, "fail": 0, "skip": 0, "inconclusive": 0}
    for c in checks:
        counts[c.status] += 1
    return counts
