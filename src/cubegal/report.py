"""The check report every subcommand emits, and its summary counts."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CheckReport:
    """One verified claim: identifier, outcome, exact values, citation."""

    check_id: str
    status: str  # pass | fail | skip | inconclusive
    expected: str
    actual: str
    citation: str
    ms: int = 0

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
