"""Uniform result objects for sample-based axiom and assumption checks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class CheckReport:
    """Outcome of running one named check over a batch of samples.

    ``violations`` carries one human-readable record per failing sample;
    ``skipped`` counts samples where the check's hypothesis was vacuous.
    """

    name: str
    checked: int
    violations: tuple[Any, ...] = ()
    skipped: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "pass" if self.ok else "FAIL"
        extra = f", {self.skipped} skipped" if self.skipped else ""
        return (
            f"{self.name}: {status} "
            f"({self.checked} checked, {len(self.violations)} violations{extra})"
        )
