"""Shared report containers for the symbolic verification suites."""

from __future__ import annotations

from typing import Mapping

from .record import Record, init_field


class Check(Record):
    __slots__ = ("family", "label", "residual", "passed", "extra")

    def __init__(
        self, family: str, label: str, residual: str, passed: bool,
        extra: Mapping[str, object] | None = None,
    ):
        init_field(self, "family", family)
        init_field(self, "label", label)
        init_field(self, "residual", residual)
        init_field(self, "passed", passed)
        init_field(self, "extra", extra)

    @classmethod
    def of(cls, family: str, label: str, residual, extra: Mapping[str, object] | None = None) -> "Check":
        """The check that ``residual`` (an operator polynomial) is zero."""
        return cls(family, label, str(residual), residual.is_zero(), extra)

    def to_dict(self) -> dict:
        out = {
            "family": self.family,
            "label": self.label,
            "residual": self.residual,
            "passed": self.passed,
        }
        if self.extra:
            out.update(self.extra)
        return out


class IdentityReport(Record):
    __slots__ = ("name", "checks", "schema")

    def __init__(self, name: str, checks: tuple[Check, ...], schema: str = "identity-report/v1"):
        init_field(self, "name", name)
        init_field(self, "checks", checks)
        init_field(self, "schema", schema)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def count(self, family: str | None = None) -> int:
        if family is None:
            return len(self.checks)
        return sum(1 for c in self.checks if c.family == family)

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "name": self.name,
            "all_passed": self.all_passed,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_text(self) -> str:
        verdict = "all pass" if self.all_passed else f"{len(self.failures())} FAILED"
        return f"{self.name:28s} {len(self.checks):4d} checks   {verdict}"

    def to_csv_rows(self) -> list[list[str]]:
        return [
            [self.name, c.family, c.label, "pass" if c.passed else "fail", c.residual]
            for c in self.checks
        ]
