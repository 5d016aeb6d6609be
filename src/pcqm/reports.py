"""Shared report containers for the symbolic verification suites; ``pcqm.cli``
presents them from their ``to_dict`` documents."""

from __future__ import annotations

from typing import Mapping

from .record import Record


class Check(Record):
    __slots__ = ("family", "label", "residual", "passed", "extra")
    _defaults = {"extra": None}

    @classmethod
    def of(cls, family: str, label: str, residual, extra: Mapping[str, object] | None = None) -> "Check":
        """The check that ``residual`` (an operator polynomial) is zero."""
        zero = residual.is_zero()
        return cls(family, label, "0" if zero else str(residual), zero, extra)

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
    _defaults = {"schema": "identity-report/v1"}

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

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
